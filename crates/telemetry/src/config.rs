//! Telemetry configuration, parsed once per process.
//!
//! The single knob is `HARDSNAP_TELEMETRY`, a comma-separated list:
//!
//! * `on` / `1` / `metrics` — enable the recorder (counters,
//!   histograms, spans; exporters become available);
//! * `io` — log every forwarded and replayed bus transaction to
//!   stderr;
//! * `off` / `0` — force everything off, overriding other tokens.
//!
//! Programmatic users (the CLI's `--trace-out`, tests) bypass the env
//! entirely by constructing a `TelemetryConfig` by hand and placing it
//! in `EngineConfig`.

use std::sync::OnceLock;

/// What the telemetry layer should collect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record counters, histograms and spans; attach exporters.
    pub enabled: bool,
    /// Log forwarded and replayed bus I/O to stderr.
    pub trace_io: bool,
}

impl TelemetryConfig {
    /// Everything off: records nothing, costs one branch per hook.
    pub const OFF: TelemetryConfig = TelemetryConfig {
        enabled: false,
        trace_io: false,
    };

    /// Recorder on, I/O logging off.
    pub const ON: TelemetryConfig = TelemetryConfig {
        enabled: true,
        trace_io: false,
    };

    /// Parse from the process environment (uncached).
    pub fn from_env() -> TelemetryConfig {
        let mut cfg = TelemetryConfig::OFF;
        let spec = std::env::var("HARDSNAP_TELEMETRY").unwrap_or_default();
        let mut force_off = false;
        for tok in spec.split(',') {
            match tok.trim() {
                "" => {}
                "on" | "1" | "metrics" => cfg.enabled = true,
                "io" => cfg.trace_io = true,
                "off" | "0" => force_off = true,
                other => {
                    eprintln!("[telemetry] ignoring unknown HARDSNAP_TELEMETRY token {other:?} (known: on, off, metrics, io)");
                }
            }
        }
        if force_off {
            cfg = TelemetryConfig::OFF;
        }
        cfg
    }
}

impl Default for TelemetryConfig {
    /// The process-wide env-derived config — `EngineConfig::default()`
    /// picks this up so `HARDSNAP_TELEMETRY=on` works without code
    /// changes.
    fn default() -> Self {
        *global()
    }
}

/// The env-derived config, parsed once and cached for the process
/// lifetime.
pub fn global() -> &'static TelemetryConfig {
    static GLOBAL: OnceLock<TelemetryConfig> = OnceLock::new();
    GLOBAL.get_or_init(TelemetryConfig::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var manipulation is process-global, so keep it in one test.
    #[test]
    fn parse_tokens() {
        // SAFETY/test-hygiene: set_var is fine here — tests in this
        // crate that read the env go through from_env() directly, and
        // the cached `global()` is never consulted by this test.
        std::env::set_var("HARDSNAP_TELEMETRY", "on,io");
        let cfg = TelemetryConfig::from_env();
        assert!(cfg.enabled && cfg.trace_io);

        std::env::set_var("HARDSNAP_TELEMETRY", "metrics");
        let cfg = TelemetryConfig::from_env();
        assert!(cfg.enabled && !cfg.trace_io);

        std::env::set_var("HARDSNAP_TELEMETRY", "on,off");
        assert_eq!(TelemetryConfig::from_env(), TelemetryConfig::OFF);

        std::env::remove_var("HARDSNAP_TELEMETRY");
        assert_eq!(TelemetryConfig::from_env(), TelemetryConfig::OFF);
    }
}
