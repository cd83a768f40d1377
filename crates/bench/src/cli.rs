//! The front end shared by the `repro` and `trace-tool` binaries.
//!
//! Every subcommand is a `fn(&[String]) -> Result<i32, UsageError>`: it
//! reads its flags through one [`Args`] cursor, whose every failure is a
//! [`UsageError`] naming the flag and the problem, and returns its exit
//! code. Each binary's `main` hands its dispatcher to [`run`], the only
//! place a usage error is printed (with the subcommand's usage line) and
//! becomes exit 2, and the one observability lifecycle.
//!
//! One switch per setting: observability outputs are switched on only by
//! their `PSCA_*` variable, which [`run`] reads for every subcommand;
//! everything else a subcommand does is set only by its own flags.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use psca_adapt::ExperimentConfig;
use psca_serve::{Daemon, ModelRegistry, ServeConfig};

/// A command-line mistake: a missing value, an unknown flag or argument,
/// a value that does not parse. The binary prints it under the usage
/// line of the subcommand that raised it and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    message: String,
    usage: Option<&'static str>,
}

impl UsageError {
    /// A usage error with a free-form message.
    pub fn new(message: impl Into<String>) -> UsageError {
        UsageError {
            message: message.into(),
            usage: None,
        }
    }

    /// Attaches `usage` unless one is already attached: the innermost
    /// caller's usage line wins.
    pub fn or_usage(mut self, usage: &'static str) -> UsageError {
        self.usage.get_or_insert(usage);
        self
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for UsageError {}

/// A cursor over one subcommand's arguments. As an [`Iterator`] it yields
/// each flag or positional in turn; the value readers consume the
/// argument after the current flag and name that flag in their errors.
#[derive(Debug)]
pub struct Args<'a> {
    args: &'a [String],
    pos: usize,
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor at the first argument.
    pub fn new(args: &'a [String]) -> Args<'a> {
        Args {
            args,
            pos: 0,
            flag: "",
        }
    }

    /// The raw value after the current flag.
    pub fn value(&mut self) -> Result<&'a str, UsageError> {
        let value = self
            .args
            .get(self.pos)
            .ok_or_else(|| UsageError::new(format!("{} requires a value", self.flag)))?;
        self.pos += 1;
        Ok(value)
    }

    /// The value after the current flag, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, UsageError> {
        let value = self.value()?;
        value
            .parse()
            .map_err(|_| UsageError::new(format!("{} got unparseable value '{value}'", self.flag)))
    }

    /// Like [`parse`](Args::parse), but zero is also an error.
    pub fn nonzero<T: FromStr + Default + PartialEq>(&mut self) -> Result<T, UsageError> {
        let n = self.parse()?;
        if n == T::default() {
            return Err(UsageError::new(format!("{} must be at least 1", self.flag)));
        }
        Ok(n)
    }

    /// The value after the current flag, read by a spec grammar or any
    /// other fallible parser.
    pub fn spec<T, E: fmt::Display>(
        &mut self,
        parse: impl FnOnce(&'a str) -> Result<T, E>,
    ) -> Result<T, UsageError> {
        let value = self.value()?;
        parse(value).map_err(|e| UsageError::new(format!("bad {} value: {e}", self.flag)))
    }

    /// The error for a current argument the subcommand does not accept.
    pub fn unknown(&self) -> UsageError {
        if self.flag.starts_with("--") {
            UsageError::new(format!("unknown flag '{}'", self.flag))
        } else {
            UsageError::new(format!("unexpected argument '{}'", self.flag))
        }
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    /// The next argument (a flag or a positional), or `None` at the end.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.pos)?;
        self.pos += 1;
        self.flag = arg;
        Some(arg)
    }
}

/// Longest argument part of a profile file name.
const PROFILE_SLUG_MAX: usize = 60;

/// The profile file-name slug: the arguments joined by `-`, made
/// path-safe (`fleet --size 64` → `fleet---size-64`), or the tool name
/// when there are none. A slug longer than [`PROFILE_SLUG_MAX`] is cut
/// there and gets `-` plus the 16-hex FNV-1a digest of the full argument
/// list (NUL-separated), so two invocations that differ only past the
/// cut still write distinct files.
fn profile_slug(tool: &str, args: &[String]) -> String {
    if args.is_empty() {
        return tool.to_string();
    }
    let mut slug = psca_obs::path_slug(&args.join("-"));
    if slug.len() > PROFILE_SLUG_MAX {
        slug.truncate(PROFILE_SLUG_MAX);
        let digest = psca_exec::fnv1a(args.join("\0").as_bytes());
        slug.push_str(&format!("-{digest:016x}"));
    }
    slug
}

/// Runs one whole binary invocation on the process arguments and returns
/// its exit code: the one place a [`UsageError`] becomes
/// `[tool] <error>`, the usage line and exit 2, and the one
/// observability lifecycle. Observability outputs are switched on only
/// by their `PSCA_*` variable, for every subcommand. Before `main`:
/// `PSCA_TRACE` and `PSCA_PROF` ([`psca_obs::init_from_env`]; `PSCA_LOG`
/// is read by the first event), and the live-metrics side channel when
/// `PSCA_METRICS_ADDR` is set. After it: the Perfetto trace and the
/// `PSCA_PROF` profile are written (not after a usage error), a running
/// side channel is kept up for `PSCA_METRICS_LINGER_S` seconds so
/// scrapers can read the finished run (not after a usage error either),
/// then shut down with a drain.
pub fn run(tool: &str, main: impl FnOnce(&[String]) -> Result<i32, UsageError>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    psca_obs::init_from_env();
    // Read before `main`: `repro bench` turns the profiler on for its own
    // per-bench stacks, and that alone writes no profile artifacts.
    let profiling = psca_obs::prof::enabled();
    let side_channel = match std::env::var("PSCA_METRICS_ADDR") {
        Ok(addr) if !addr.trim().is_empty() => start_side_channel(addr.trim()),
        _ => None,
    };
    let result = main(&args);
    let usage_error = result.is_err();
    let code = result.unwrap_or_else(|e| {
        eprintln!("[{tool}] {e}");
        if let Some(usage) = e.usage {
            eprintln!("{usage}");
        }
        2
    });
    if let Some(path) = psca_obs::trace::finish() {
        eprintln!(
            "[{tool}] trace: {} (load in https://ui.perfetto.dev)",
            path.display()
        );
    }
    if profiling && !usage_error {
        write_profile(tool, &args);
    }
    let Some(daemon) = side_channel else {
        return code;
    };
    let linger = std::env::var("PSCA_METRICS_LINGER_S")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&secs| secs > 0);
    if let Some(secs) = linger.filter(|_| !usage_error) {
        eprintln!("[{tool}] lingering {secs}s for metric scrapes");
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
    daemon.shutdown();
    code
}

/// Starts the live-metrics side channel on `addr`: a one-worker
/// `psca-serve` daemon with no models and no SLO, answering `/metrics`,
/// `/healthz` and `/report` while the subcommand runs. The bound address
/// goes to stderr; a bind failure is reported there too and the run goes
/// on without it.
fn start_side_channel(addr: &str) -> Option<Daemon> {
    let config = ServeConfig {
        addr: addr.to_string(),
        workers: 1,
        slo: None,
        ..ServeConfig::default()
    };
    match Daemon::start(config, ModelRegistry::new(ExperimentConfig::quick())) {
        Ok(daemon) => {
            let bound = daemon.local_addr();
            eprintln!("psca-obs: serving /metrics /healthz /report on http://{bound}");
            Some(daemon)
        }
        Err(e) => {
            eprintln!("psca-obs: cannot bind metrics exporter on {addr}: {e}");
            None
        }
    }
}

/// Drains the profile `PSCA_PROF` recorded and writes it as
/// `target/obs/profile-<slug>.folded` (collapsed stacks, flamegraph.pl /
/// inferno consumable) and `.json` (summary), then prints the self-time
/// table to stderr.
fn write_profile(tool: &str, args: &[String]) {
    let profile = psca_obs::prof::drain();
    let slug = profile_slug(tool, args);
    let dir = Path::new("target/obs");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[{tool}] profile: cannot create {}: {e}", dir.display());
        return;
    }
    for (ext, body) in [
        ("folded", profile.folded()),
        ("json", format!("{}\n", profile.to_json())),
    ] {
        let path = dir.join(format!("profile-{slug}.{ext}"));
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("[{tool}] profile: {}", path.display()),
            Err(e) => eprintln!("[{tool}] profile: cannot write {}: {e}", path.display()),
        }
    }
    if profile.is_empty() {
        eprintln!("[{tool}] profile: no spans recorded");
    } else {
        eprint!("{}", profile.render_table(15));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn profile_slugs_stay_short_and_distinct() {
        let short = argv(&["fleet", "--size", "2", "--windows", "4", "--seed", "3"]);
        assert_eq!(
            profile_slug("repro", &short),
            "fleet---size-2---windows-4---seed-3"
        );
        assert_eq!(profile_slug("repro", &[]), "repro");
        let long = |last: &str| {
            argv(&[
                "table3",
                "chaos-sweep",
                "fig4",
                "fig5",
                "fig6",
                "fig10",
                "--quick",
                "--jobs",
                "2",
                last,
            ])
        };
        let (a, b) = (
            profile_slug("repro", &long("--no-cache")),
            profile_slug("repro", &long("--no-cachf")),
        );
        assert_eq!(a[..PROFILE_SLUG_MAX], b[..PROFILE_SLUG_MAX]);
        assert_ne!(a, b);
        assert_eq!(a.len(), PROFILE_SLUG_MAX + 17);
    }

    #[test]
    fn reads_flags_values_and_positionals_in_order() {
        let v = argv(&["--seed", "7", "--quick", "table3", "--chaos", "x=1"]);
        let mut args = Args::new(&v);
        assert_eq!(args.next(), Some("--seed"));
        assert_eq!(args.parse::<u64>(), Ok(7));
        assert_eq!(args.next(), Some("--quick"));
        assert_eq!(args.next(), Some("table3"));
        assert_eq!(args.next(), Some("--chaos"));
        assert_eq!(args.spec(|s| Ok::<_, String>(s.len())), Ok(3));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn errors_name_the_flag_and_the_problem() {
        let v = argv(&["--jobs", "x", "--size", "0", "--slo", "bad", "--out"]);
        let mut args = Args::new(&v);
        args.next();
        let e = args.parse::<usize>().unwrap_err().to_string();
        assert_eq!(e, "--jobs got unparseable value 'x'");
        args.next();
        let e = args.nonzero::<usize>().unwrap_err().to_string();
        assert_eq!(e, "--size must be at least 1");
        args.next();
        let e = args.spec(|_| Err::<(), _>("no such key")).unwrap_err();
        assert_eq!(e.to_string(), "bad --slo value: no such key");
        args.next();
        assert_eq!(
            args.value().unwrap_err().to_string(),
            "--out requires a value"
        );
        assert_eq!(args.unknown().to_string(), "unknown flag '--out'");
    }

    #[test]
    fn the_innermost_usage_line_wins() {
        let e = UsageError::new("x").or_usage("inner").or_usage("outer");
        assert_eq!(e.usage, Some("inner"));
    }
}
