//! `psca-prof`: a dependency-free hierarchical self-profiler.
//!
//! Rides the existing [`crate::SpanTimer`] machinery: when profiling is
//! enabled (`PSCA_PROF=1` or [`set_enabled`]), every span exit folds the
//! span's wall time into a call-tree node keyed by the `;`-joined stack
//! of enclosing span names — the *collapsed-stack* key flamegraph
//! tooling consumes directly. Each node tracks call count, total wall
//! time, and **self** time (total minus the time its child spans took,
//! both read from the span's frame on the thread's one span stack), so a
//! sorted self-time table points at the code that actually burns cycles
//! rather than whatever sits at the top of the call tree.
//!
//! Every span exit, on any thread, folds straight into the
//! process-global profile. Node statistics are commutative sums, so the
//! order in which sweep workers finish cannot change the totals, and a
//! sweep cell's spans nest under the caller's spans because the workers
//! inherit the caller's span stack ([`crate::span::inherit`]): stacks
//! and call counts are the same at any `--jobs` (tested in
//! `tests/observability.rs`).
//!
//! The profiler is an observer only: it never touches simulation state,
//! RNG streams, or response bodies, so profiled and unprofiled runs are
//! bit-identical in everything but the profile artifacts themselves.
//! When disabled (the default) the per-span cost is one relaxed atomic
//! load.
//!
//! Renderings:
//! - [`Profile::folded`] — collapsed-stack text (`a;b;c <self_us>` per
//!   line), loadable by `inferno-flamegraph` / `flamegraph.pl`;
//! - [`Profile::self_table`] / [`Profile::render_table`] — nodes sorted
//!   by self time;
//! - [`Profile::to_json`] — the machine-readable summary written next
//!   to the `.folded` file at exit (`PSCA_PROF=1 <any command>`) and
//!   served by `GET /v1/profile`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when the profiler is recording span frames.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off (tests, `repro bench`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables profiling when `PSCA_PROF` is set to `1`, `true`, or `on`.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("PSCA_PROF") {
        if matches!(v.trim(), "1" | "true" | "on") {
            set_enabled(true);
        }
    }
}

/// Aggregated statistics for one call-tree node (one distinct stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// Times a span completed with exactly this stack.
    pub calls: u64,
    /// Total wall nanoseconds across those completions.
    pub total_ns: u64,
    /// Wall nanoseconds not attributed to child frames.
    pub self_ns: u64,
}

/// A merged call-tree profile: collapsed-stack key → [`NodeStat`].
///
/// Keys are `;`-joined span *names* (not the dot-joined span paths —
/// names may themselves contain dots), ordered deterministically by the
/// underlying `BTreeMap`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    nodes: BTreeMap<String, NodeStat>,
}

impl Profile {
    /// Folds one completed frame into the tree.
    pub fn record(&mut self, stack: &str, total_ns: u64, self_ns: u64) {
        let node = self.nodes.entry(stack.to_string()).or_default();
        node.calls += 1;
        node.total_ns += total_ns;
        node.self_ns += self_ns;
    }

    /// Merges another profile into this one. Node stats are sums, so
    /// the operation is commutative and associative: merging profiles in
    /// any grouping produces the same profile.
    pub fn merge(&mut self, other: &Profile) {
        for (stack, stat) in &other.nodes {
            let node = self.nodes.entry(stack.clone()).or_default();
            node.calls += stat.calls;
            node.total_ns += stat.total_ns;
            node.self_ns += stat.self_ns;
        }
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for an exact collapsed-stack key, if recorded.
    pub fn node(&self, stack: &str) -> Option<&NodeStat> {
        self.nodes.get(stack)
    }

    /// All `(stack, stat)` pairs in deterministic (key) order.
    pub fn nodes(&self) -> impl Iterator<Item = (&str, &NodeStat)> {
        self.nodes.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Collapsed-stack rendering: one `stack value` line per node, where
    /// the value is the node's **self** time in integer microseconds —
    /// the convention `inferno-flamegraph` and `flamegraph.pl` consume.
    /// Lines are sorted by stack key, so two equal profiles render
    /// byte-identically.
    pub fn folded(&self) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 48);
        for (stack, stat) in &self.nodes {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&(stat.self_ns / 1_000).to_string());
            out.push('\n');
        }
        out
    }

    /// Nodes sorted by self time, heaviest first (ties break on the
    /// stack key, so the order is deterministic).
    pub fn self_table(&self) -> Vec<(&str, &NodeStat)> {
        let mut rows: Vec<(&str, &NodeStat)> =
            self.nodes.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
        rows
    }

    /// The `n` heaviest stacks by self time as `(stack, stat)` pairs.
    pub fn top_self(&self, n: usize) -> Vec<(String, NodeStat)> {
        self.self_table()
            .into_iter()
            .take(n)
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Human-readable self-time table (heaviest stacks first).
    pub fn render_table(&self, max_rows: usize) -> String {
        let rows = self.self_table();
        let mut out = String::new();
        out.push_str(&format!(
            "{:>12} {:>12} {:>8}  {}\n",
            "self_us", "total_us", "calls", "stack"
        ));
        for (stack, stat) in rows.iter().take(max_rows) {
            out.push_str(&format!(
                "{:>12} {:>12} {:>8}  {}\n",
                stat.self_ns / 1_000,
                stat.total_ns / 1_000,
                stat.calls,
                stack
            ));
        }
        if rows.len() > max_rows {
            out.push_str(&format!("... {} more stacks\n", rows.len() - max_rows));
        }
        out
    }

    /// Machine-readable summary: every node, heaviest self time first.
    pub fn to_json(&self) -> Json {
        let nodes: Vec<Json> = self
            .self_table()
            .into_iter()
            .map(|(stack, stat)| {
                Json::obj(vec![
                    ("stack", Json::Str(stack.to_string())),
                    ("calls", Json::UInt(stat.calls)),
                    ("total_us", Json::UInt(stat.total_ns / 1_000)),
                    ("self_us", Json::UInt(stat.self_ns / 1_000)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("profiler", Json::Str("psca-prof".to_string())),
            ("stacks", Json::UInt(self.nodes.len() as u64)),
            ("nodes", Json::Arr(nodes)),
        ])
    }
}

/// The collapsed-stack key of a span: its enclosing span names,
/// outermost first, then its own, joined by `;`.
pub(crate) fn stack_key<'a>(names: impl IntoIterator<Item = &'a str>) -> String {
    let mut key = String::new();
    for name in names {
        if !key.is_empty() {
            key.push(';');
        }
        // The folded grammar reserves ';' (stack separator), ' ' (value
        // separator), and newlines; span names never legitimately contain
        // them, but a stray one must not corrupt the artifact.
        key.extend(name.chars().map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        }));
    }
    key
}

/// Folds one completed span into the process-global profile. Runs in
/// `SpanTimer`'s drop, so it must not panic: a poisoned lock still holds
/// a valid profile (each node update is a few additions).
pub(crate) fn record(stack: &str, total_ns: u64, self_ns: u64) {
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(stack, total_ns, self_ns);
}

fn global() -> &'static Mutex<Profile> {
    static GLOBAL: OnceLock<Mutex<Profile>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Profile::default()))
}

/// Merges a profile (e.g. `repro bench`'s union of its per-bench
/// profiles) into the process-global profile.
pub fn merge_global(profile: &Profile) {
    if profile.is_empty() {
        return;
    }
    global().lock().unwrap().merge(profile);
}

/// A copy of the process-global profile.
pub fn snapshot() -> Profile {
    global().lock().unwrap().clone()
}

/// Takes the process-global profile, leaving it empty — the
/// "since last scrape" semantics `GET /v1/profile` uses.
pub fn drain() -> Profile {
    std::mem::take(&mut *global().lock().unwrap())
}

/// Clears the process-global profile (per-run scoping; tests).
pub fn reset() {
    global().lock().unwrap().nodes.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::default();
        p.record("a", 10_000, 4_000);
        p.record("a;b", 6_000, 6_000);
        p.record("a", 2_000, 2_000);
        p
    }

    #[test]
    fn record_accumulates_calls_and_time() {
        let p = sample();
        let a = p.node("a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 12_000);
        assert_eq!(a.self_ns, 6_000);
        assert_eq!(p.node("a;b").unwrap().calls, 1);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, mut c) = (sample(), sample(), Profile::default());
        c.record("c", 5_000, 5_000);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab, ba);
    }

    #[test]
    fn folded_lists_each_stack_with_its_self_micros() {
        let folded = sample().folded();
        assert!(folded.contains("a;b 6\n"));
        assert_eq!(folded.lines().count(), sample().len());
    }

    #[test]
    fn self_table_sorts_heaviest_first() {
        let mut p = sample();
        p.record("zz", 9_000, 9_000);
        let rows = p.self_table();
        assert_eq!(rows[0].0, "zz");
        // "a" and "a;b" tie on self time (6µs each); ties break on the
        // stack key so the order is deterministic.
        assert_eq!(rows[1].0, "a");
        assert_eq!(rows[2].0, "a;b");
        assert_eq!(p.top_self(1)[0].0, "zz");
    }

    #[test]
    fn frame_attribution_computes_self_time() {
        // Unique span names keep this test's nodes apart from any other
        // test recording into the global profile concurrently.
        set_enabled(true);
        let parent = crate::SpanTimer::start("pf_parent");
        let child = crate::SpanTimer::start("pf_child");
        let child_ns = child.finish();
        let parent_ns = parent.finish();
        let profile = snapshot();
        let parent = profile.node("pf_parent").unwrap();
        assert_eq!(parent.calls, 1);
        assert_eq!(parent.total_ns, parent_ns);
        assert_eq!(parent.self_ns, parent_ns - child_ns);
        let child = profile.node("pf_parent;pf_child").unwrap();
        assert_eq!(child.total_ns, child_ns);
        assert_eq!(child.self_ns, child_ns);
        assert_eq!(child.calls, 1);
    }

    #[test]
    fn names_are_sanitized_for_the_folded_grammar() {
        assert_eq!(
            stack_key(["weird name", "with;sep\n"]),
            "weird_name;with_sep_"
        );
    }

    #[test]
    fn json_summary_orders_by_self_time() {
        let mut p = sample();
        p.record("zz", 9_000, 9_000);
        let doc = p.to_json();
        assert_eq!(doc.get("stacks").and_then(Json::as_u64), Some(3));
        let nodes = doc.get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(nodes[0].get("stack").and_then(Json::as_str), Some("zz"));
        assert_eq!(nodes[0].get("self_us").and_then(Json::as_u64), Some(9));
        assert_eq!(nodes[1].get("self_us").and_then(Json::as_u64), Some(6));
    }
}
