//! `hardsnap-serve` — the campaign daemon.
//!
//! ```text
//! hardsnap-serve [--state-dir DIR] [--socket PATH] [--pool N]
//!                [--queue-max N] [--warm-pool N]
//!                [--sched fifo|lanes] [--aging-ms MS]
//!                [--metrics-addr HOST:PORT] [--no-observe] [--stdio]
//! ```
//!
//! On start the daemon recovers its state directory: terminal jobs are
//! reported as-is, unfinished jobs re-enqueue and resume from their
//! last crash-atomic checkpoint. `--stdio` serves a single NDJSON
//! session on stdin/stdout instead of binding the unix socket (handy
//! for scripting and tests). `--metrics-addr` additionally serves
//! Prometheus text exposition over plain TCP (the bound address is
//! printed, so `:0` works for tests). On SIGTERM or panic the daemon
//! dumps its flight recorder to `<state-dir>/flight.json` before
//! winding down.
//!
//! `--warm-pool N` keeps N pre-built prototypes of the SoC so jobs fork
//! their replicas from a leased one instead of building their own.
//! `--sched` picks the queue policy: `lanes` (default — priority lanes
//! with aging and packing) or `fifo` (strict admission order).

use hardsnap_serve::{Daemon, DaemonConfig, SchedPolicy};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);
/// The live daemon, stashed for the panic hook's flight dump.
static DAEMON: OnceLock<Arc<Daemon>> = OnceLock::new();

extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: just set the flag; a watcher thread acts.
    SIGTERM_SEEN.store(true, Ordering::SeqCst);
}

fn install_sigterm_handler() {
    // libc is already linked by std; declaring `signal` avoids any
    // dependency. SIGTERM = 15 on every platform this daemon targets.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hardsnap-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = DaemonConfig::default();
    let mut socket: Option<PathBuf> = None;
    let mut metrics_addr: Option<String> = None;
    let mut stdio = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--state-dir" => cfg.state_dir = PathBuf::from(value("--state-dir")?),
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--pool" => cfg.pool_replicas = value("--pool")?.parse()?,
            "--queue-max" => cfg.queue_max = value("--queue-max")?.parse()?,
            "--warm-pool" => cfg.warm_pool = value("--warm-pool")?.parse()?,
            "--sched" => {
                let name = value("--sched")?;
                cfg.sched = SchedPolicy::parse(&name)
                    .ok_or_else(|| format!("--sched must be 'fifo' or 'lanes', got '{name}'"))?;
            }
            "--aging-ms" => cfg.aging_ms = value("--aging-ms")?.parse()?,
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--no-observe" => cfg.observe = false,
            "--stdio" => stdio = true,
            "--help" | "-h" => {
                println!(
                    "usage: hardsnap-serve [--state-dir DIR] [--socket PATH] [--pool N]
                      [--queue-max N] [--warm-pool N] [--sched fifo|lanes]
                      [--aging-ms MS] [--metrics-addr HOST:PORT] [--no-observe]
                      [--stdio]

Runs the campaign daemon: concurrent jobs over a bounded pool of
target replicas, with hard budgets, admission control and crash-safe
resume (kill -9 + restart loses nothing). --warm-pool N keeps N
pre-built SoC prototypes that jobs fork their replicas from, so short
jobs skip the SoC build. --sched lanes (default) schedules by priority
lane with aging and packing; --sched fifo is strict admission order.
Clients: hardsnap-cli submit|status|wait|cancel|metrics|subscribe|top."
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }
    let socket = socket.unwrap_or_else(|| cfg.state_dir.join("serve.sock"));
    let daemon = Daemon::new(cfg)?;
    let _ = DAEMON.set(Arc::clone(&daemon));

    // A panic anywhere in the process leaves a post-mortem trail.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(d) = DAEMON.get() {
            if let Ok(path) = d.dump_flight_to_file() {
                eprintln!(
                    "hardsnap-serve: flight recorder dumped to {}",
                    path.display()
                );
            }
        }
        default_hook(info);
    }));

    // SIGTERM: dump the flight recorder, then wind down cleanly.
    install_sigterm_handler();
    {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || loop {
            if SIGTERM_SEEN.load(Ordering::SeqCst) {
                if let Ok(path) = d.dump_flight_to_file() {
                    eprintln!(
                        "hardsnap-serve: SIGTERM — flight recorder dumped to {}",
                        path.display()
                    );
                }
                d.request_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    let resumed = daemon.recover()?;
    if resumed > 0 {
        eprintln!("hardsnap-serve: resumed {resumed} unfinished job(s)");
    }
    if let Some(addr) = metrics_addr {
        let bound = daemon.spawn_metrics_http(&addr)?;
        // Machine-parseable (the CI gate scrapes it): keep this format.
        eprintln!("hardsnap-serve: metrics on http://{bound}/metrics");
    }
    if stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut r = stdin.lock();
        let mut w = stdout.lock();
        daemon.serve_stream(&mut r, &mut w)?;
    } else {
        eprintln!("hardsnap-serve: listening on {}", socket.display());
        daemon.serve_unix(&socket)?;
    }
    // Give just-cancelled jobs a moment to checkpoint before exit; a
    // hard kill is also fine — that is the whole point of the journal.
    daemon.wait_idle(Duration::from_millis(500));
    Ok(())
}
