//! The `key=value` spec grammar shared by every operator-facing spec
//! string: `--chaos` (`psca_faults::ChaosSpec`), `--skew` and
//! `--rollout` (`psca_fleet`), and `--slo` ([`crate::SloSpec`]).
//!
//! ```text
//! spec   := preset | entry (',' entry)*
//! preset := '' | 'default' | 'off'          (ASCII case ignored)
//! entry  := key '=' value
//! ```
//!
//! - The string, each entry, and each key and value are trimmed; empty
//!   entries (`a=1,,b=2`, a trailing comma) are skipped.
//! - Entries apply left to right, so a later entry overrides an earlier
//!   one (`all=0.02,uc.late=0.1` refines a group shorthand).
//! - An entry without `=`, or with a key the grammar does not know, is
//!   an error.
//! - Values go through one of four typed readers on [`Entry`]:
//!   non-negative integer, positive integer, number in `[0, 1]`, positive
//!   finite number. NaN and infinities pass no number reader.
//!
//! A grammar's `parse` keeps only its key-to-field table, what its
//! presets mean, and its own cross-field rules. Every failure is a
//! [`SpecError`], displayed as `'<entry>': <problem>`.

use std::fmt;
use std::str::FromStr;

/// A whole-string preset keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `""` or `default`: the grammar's default spec.
    Default,
    /// `off`: the grammar's disabled spec.
    Off,
}

/// The preset `s` names, if any.
pub fn preset(s: &str) -> Option<Preset> {
    let s = s.trim();
    if s.is_empty() || s.eq_ignore_ascii_case("default") {
        Some(Preset::Default)
    } else {
        s.eq_ignore_ascii_case("off").then_some(Preset::Off)
    }
}

/// Tokenizes `s` and applies each entry, left to right, to `init`.
///
/// # Errors
/// The first entry without `=`, or the first error `apply` returns.
pub fn apply_entries<T>(
    s: &str,
    mut init: T,
    mut apply: impl FnMut(&mut T, &Entry<'_>) -> Result<(), SpecError>,
) -> Result<T, SpecError> {
    for text in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let Some((key, value)) = text.split_once('=') else {
            return Err(SpecError::new(text, SpecErrorKind::NotKeyValue));
        };
        let (key, value) = (key.trim(), value.trim());
        apply(&mut init, &Entry { text, key, value })?;
    }
    Ok(init)
}

/// One trimmed `key=value` entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry<'a> {
    /// The whole entry, for error messages.
    pub text: &'a str,
    /// The key.
    pub key: &'a str,
    /// The value.
    pub value: &'a str,
}

impl Entry<'_> {
    /// An error about this entry.
    pub fn error(&self, kind: SpecErrorKind) -> SpecError {
        SpecError::new(self.text, kind)
    }

    /// The error for a key the grammar does not know.
    pub fn unknown_key(&self) -> SpecError {
        self.error(SpecErrorKind::UnknownKey(self.key.to_string()))
    }

    fn read<T: FromStr>(
        &self,
        kind: SpecErrorKind,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, SpecError> {
        match self.value.parse::<T>() {
            Ok(v) if ok(&v) => Ok(v),
            _ => Err(self.error(kind)),
        }
    }

    /// Reads the value as an integer `>= 0`.
    pub fn non_negative_int(&self) -> Result<u64, SpecError> {
        self.read(SpecErrorKind::NonNegativeInt, |_| true)
    }

    /// Reads the value as an integer `>= 1`.
    pub fn positive_int(&self) -> Result<u64, SpecError> {
        self.read(SpecErrorKind::PositiveInt, |&v| v > 0)
    }

    /// Reads the value as a number in `[0, 1]`.
    pub fn unit(&self) -> Result<f64, SpecError> {
        self.read(SpecErrorKind::Unit, |v| (0.0..=1.0).contains(v))
    }

    /// Reads the value as a finite number `> 0`.
    pub fn positive_finite(&self) -> Result<f64, SpecError> {
        self.read(SpecErrorKind::PositiveFinite, |v: &f64| {
            *v > 0.0 && v.is_finite()
        })
    }
}

/// What is wrong with a spec entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// The entry has no `=`.
    NotKeyValue,
    /// The grammar has no such key.
    UnknownKey(String),
    /// The value is not a non-negative integer.
    NonNegativeInt,
    /// The value is not a positive integer.
    PositiveInt,
    /// The value is not a number in `[0, 1]`.
    Unit,
    /// The value is not a positive finite number.
    PositiveFinite,
    /// A grammar's own rule failed; the text states the rule.
    Rule(String),
}

impl fmt::Display for SpecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let expected = match self {
            SpecErrorKind::NotKeyValue => "key=value",
            SpecErrorKind::UnknownKey(key) => return write!(f, "unknown key '{key}'"),
            SpecErrorKind::NonNegativeInt => "a non-negative integer",
            SpecErrorKind::PositiveInt => "a positive integer",
            SpecErrorKind::Unit => "a number in [0, 1]",
            SpecErrorKind::PositiveFinite => "a positive finite number",
            SpecErrorKind::Rule(rule) => return f.write_str(rule),
        };
        write!(f, "expected {expected}")
    }
}

/// A rejected spec string: the offending entry and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The entry as written (or as rendered, for a cross-field rule).
    pub entry: String,
    /// The problem.
    pub kind: SpecErrorKind,
}

impl SpecError {
    /// An error about `entry`.
    pub fn new(entry: impl Into<String>, kind: SpecErrorKind) -> SpecError {
        let entry = entry.into();
        SpecError { entry, kind }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}': {}", self.entry, self.kind)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(s: &str) -> Result<Vec<(String, String)>, SpecError> {
        apply_entries(s, Vec::new(), |out, e| {
            out.push((e.key.to_string(), e.value.to_string()));
            Ok(())
        })
    }

    #[test]
    fn presets_ignore_case_and_whitespace() {
        for s in ["", "  ", "default", " DEFAULT ", "Default"] {
            assert_eq!(preset(s), Some(Preset::Default), "{s:?}");
        }
        for s in ["off", "OFF", " Off "] {
            assert_eq!(preset(s), Some(Preset::Off), "{s:?}");
        }
        assert_eq!(preset("a=1"), None);
    }

    #[test]
    fn tokenizer_trims_and_skips_empty_entries() {
        let got = pairs(" a = 1 ,, b=2 ,").unwrap();
        assert_eq!(
            got,
            vec![("a".into(), "1".into()), ("b".into(), "2".into())]
        );
        let err = pairs("a=1, b ").unwrap_err();
        assert_eq!(err.to_string(), "'b': expected key=value");
    }

    #[test]
    fn readers_enforce_their_ranges() {
        let e = |value| Entry {
            text: "k",
            key: "k",
            value,
        };
        assert_eq!(e("0").non_negative_int(), Ok(0));
        assert!(e("-1").non_negative_int().is_err());
        assert!(e("0").positive_int().is_err());
        assert_eq!(e("7").positive_int(), Ok(7));
        assert_eq!(e("1").unit(), Ok(1.0));
        for bad in ["1.5", "-0.1", "nan", "inf", "x"] {
            assert!(e(bad).unit().is_err(), "{bad}");
        }
        assert_eq!(e("2.5").positive_finite(), Ok(2.5));
        for bad in ["0", "-1", "nan", "inf", "-inf", "x"] {
            assert!(e(bad).positive_finite().is_err(), "{bad}");
        }
    }

    #[test]
    fn errors_name_the_entry() {
        let err = apply_entries("x = 2", (), |_, e| e.unit().map(drop)).unwrap_err();
        assert_eq!(err.entry, "x = 2");
        assert_eq!(err.kind, SpecErrorKind::Unit);
        assert_eq!(err.to_string(), "'x = 2': expected a number in [0, 1]");
        let err = apply_entries("bogus=1", (), |_, e| Err(e.unknown_key())).unwrap_err();
        assert_eq!(err.to_string(), "'bogus=1': unknown key 'bogus'");
    }
}
