//! The front end shared by the `repro` and `trace-tool` binaries.
//!
//! Every subcommand is a `fn(&[String]) -> Result<i32, UsageError>`: it
//! reads its flags through one [`Args`] cursor, whose every failure is a
//! [`UsageError`] naming the flag and the problem, and returns its exit
//! code. Each binary's `main` hands its dispatcher to [`run`], the only
//! place a usage error is printed (with the subcommand's usage line) and
//! becomes exit 2, and the one observability lifecycle.

use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

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

    /// Attaches `usage` unless an inner subcommand already attached its
    /// own (so `repro profile fleet --bogus` shows the fleet usage).
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

/// Runs one whole binary invocation and returns its exit code: the one
/// place a [`UsageError`] becomes `[tool] <error>`, the usage line and
/// exit 2, and the one observability lifecycle. Before `main`: every
/// `PSCA_*` output the environment asks for
/// ([`psca_obs::init_from_env`]) and the live-metrics side channel when
/// `PSCA_METRICS_ADDR` is set. After it: the Perfetto trace is written,
/// a running side channel is kept up for `PSCA_METRICS_LINGER_S` seconds
/// so scrapers can read the finished run (not after a usage error), then
/// shut down with a drain.
pub fn run(tool: &str, main: impl FnOnce() -> Result<i32, UsageError>) -> i32 {
    psca_obs::init_from_env();
    match std::env::var("PSCA_METRICS_ADDR") {
        Ok(addr) if !addr.trim().is_empty() => start_side_channel(addr.trim()),
        _ => {}
    }
    let code = main().unwrap_or_else(|e| {
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
    let linger = std::env::var("PSCA_METRICS_LINGER_S")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&secs| secs > 0);
    if let Some(secs) = linger {
        if code != 2 && SIDE_CHANNEL.lock().unwrap().is_some() {
            eprintln!("[{tool}] lingering {secs}s for metric scrapes");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    }
    if let Some(daemon) = SIDE_CHANNEL.lock().unwrap().take() {
        daemon.shutdown();
    }
    code
}

/// The live-metrics side channel: a one-worker `psca-serve` daemon with
/// no models and no SLO, answering `/metrics`, `/healthz` and `/report`
/// while the subcommand runs.
static SIDE_CHANNEL: Mutex<Option<Daemon>> = Mutex::new(None);

/// Starts the side channel on `addr` unless it is already running. The
/// bound address goes to stderr; a bind failure is reported there too
/// and the run goes on without it.
fn start_side_channel(addr: &str) {
    let mut slot = SIDE_CHANNEL.lock().unwrap();
    if slot.is_some() {
        return;
    }
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
            *slot = Some(daemon);
        }
        Err(e) => eprintln!("psca-obs: cannot bind metrics exporter on {addr}: {e}"),
    }
}

/// Applies the observability flags both binaries accept: `--trace-out
/// PATH` starts the Perfetto recorder (unless `PSCA_TRACE` already did;
/// the first destination wins) and `--serve-metrics` the live-metrics
/// side channel on `PSCA_METRICS_ADDR` (default `127.0.0.1:9185`).
pub fn obs_flags(tool: &str, trace_out: Option<&str>, serve_metrics: bool) {
    if let Some(path) = trace_out {
        if !psca_obs::trace::enable(path) {
            eprintln!("[{tool}] trace recorder already active (PSCA_TRACE?); keeping it");
        }
    }
    if serve_metrics {
        let addr = std::env::var("PSCA_METRICS_ADDR").unwrap_or_else(|_| "127.0.0.1:9185".into());
        start_side_channel(&addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
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
