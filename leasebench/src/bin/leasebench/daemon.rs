//! A `leased` child process, its metrics scrape, and its memory high-water
//! mark.

use crate::client::Conn;
use crate::gen::SHARDS;
use crate::reference::structure;
use leased::protocol::{Request, Response};
use leased::server::{Server, ServerConfig};
use leasing_core::engine::DecisionRetention;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Where a daemon runs.
#[derive(Clone, Debug)]
pub enum Target {
    /// A release `leased` binary, started as a child process.
    Process(PathBuf),
    /// A `leased::Server` on a thread of this process; the benchmark's
    /// tests use it.
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// A running daemon. Dropping it kills the process (or shuts the
/// in-process server down) and waits for it.
pub struct Daemon {
    child: Option<Child>,
    server: Option<JoinHandle<()>>,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a two-shard daemon on a free port (restoring from
    /// `snapshot_dir` when given, keeping the last `retention` decisions
    /// per shard when given) and returns once it has answered one `stats`
    /// request, with the time that took.
    pub fn start(
        target: &Target,
        snapshot_dir: Option<&Path>,
        retention: Option<usize>,
    ) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let daemon = match target {
            Target::Process(bin) => Daemon::spawn(bin, snapshot_dir, retention)?,
            Target::InProcess => {
                let mut config = ServerConfig::new(structure());
                config.shards = SHARDS as usize;
                config.snapshot_dir = snapshot_dir.map(Path::to_path_buf);
                config.retention =
                    retention.map_or(DecisionRetention::Full, DecisionRetention::Bounded);
                let server = Server::bind("127.0.0.1:0", &config).map_err(|e| e.to_string())?;
                let addr = server.local_addr().map_err(|e| e.to_string())?;
                Daemon {
                    child: None,
                    server: Some(std::thread::spawn(move || {
                        let _ = server.run();
                    })),
                    addr,
                    stdout: None,
                }
            }
        };
        match Conn::connect(daemon.addr)?.request(&Request::Stats)? {
            Response::Stats(_) => Ok((daemon, started.elapsed().as_secs_f64())),
            other => Err(format!("daemon answered stats with {other:?}")),
        }
    }

    fn spawn(
        bin: &Path,
        snapshot_dir: Option<&Path>,
        retention: Option<usize>,
    ) -> Result<Daemon, String> {
        let mut command = Command::new(bin);
        command.args(["--listen", "127.0.0.1:0", "--shards", &SHARDS.to_string()]);
        if let Some(n) = retention {
            command.args(["--retention", &format!("bounded:{n}")]);
        }
        if let Some(dir) = snapshot_dir {
            command.arg("--snapshot-dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_string());
        };
        let (tx, rx) = mpsc::channel();
        // Reads the banner, then drains stdout until the daemon exits.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("leased: listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            server: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "daemon did not print its listening banner".to_string())?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("bad daemon address {addr:?}: {e}"))?;
        Ok(daemon)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        match &self.child {
            Some(child) => peak_rss_mb(&format!("/proc/{}/status", child.id())),
            None => peak_rss_mb("/proc/self/status"),
        }
    }

    /// Kills the daemon and waits for it to exit. (A `shutdown` request
    /// would first serialize every shard, which on a large state takes
    /// longer than the measured run.) Every client connection must be
    /// closed first: the daemon finishes serving open connections.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(server) = self.server.take() {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                let _ = conn.request(&Request::Shutdown);
            }
            let _ = server.join();
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One scrape of the daemon's `metrics` op: every sample by its full
/// series name (labels included).
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    pub fn take(conn: &mut Conn) -> Result<Scrape, String> {
        match conn.request(&Request::Metrics)? {
            Response::Metrics(text) => Ok(Scrape::parse(&text)),
            other => Err(format!("metrics answered with {other:?}")),
        }
    }

    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// Sum of every series of family `name` (any labels).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Largest sample of family `name` (any labels).
    pub fn max(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name))
            .map(|(_, &v)| v)
            .fold(0.0, f64::max)
    }

    /// Cumulative `(upper edge, count)` buckets of histogram `name`.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter_map(|(series, &v)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                le.parse::<f64>().ok().map(|le| (le, v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// What changed between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn sum(&self, name: &str) -> f64 {
        self.after.sum(name) - self.before.sum(name)
    }

    /// Mean of histogram `name` over the interval (`_sum / _count`).
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.sum(&format!("{name}_sum")) / self.sum(&format!("{name}_count")).max(1.0)
    }

    /// The `q`-quantile of histogram `name` over the interval, linearly
    /// interpolated inside the power-of-two bucket that holds it.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let before: BTreeMap<u64, f64> = self
            .before
            .buckets(name)
            .into_iter()
            .map(|(le, v)| (le as u64, v))
            .collect();
        let buckets: Vec<(f64, f64)> = self
            .after
            .buckets(name)
            .into_iter()
            .map(|(le, v)| (le, v - before.get(&(le as u64)).copied().unwrap_or(0.0)))
            .collect();
        let total = self.sum(&format!("{name}_count"));
        let target = q * total;
        let mut lower_edge = 0.0;
        let mut below = 0.0;
        for (le, cumulative) in buckets {
            if cumulative >= target && cumulative > below {
                let share = (target - below) / (cumulative - below);
                return lower_edge + share * (le - lower_edge);
            }
            lower_edge = le;
            below = cumulative;
        }
        lower_edge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_parse_and_histograms_interpolate() {
        let before = Scrape::parse(
            "# HELP x y\nleased_submit_demands_total{shard=\"0\"} 5\n\
             leased_submit_demands_total{shard=\"1\"} 7\nlat_bucket{le=\"1\"} 0\n\
             lat_bucket{le=\"3\"} 0\nlat_bucket{le=\"7\"} 0\nlat_sum 0\nlat_count 0\n",
        );
        let after = Scrape::parse(
            "leased_submit_demands_total{shard=\"0\"} 15\n\
             leased_submit_demands_total{shard=\"1\"} 17\nlat_bucket{le=\"1\"} 0\n\
             lat_bucket{le=\"3\"} 50\nlat_bucket{le=\"7\"} 100\nlat_sum 400\nlat_count 100\n",
        );
        assert_eq!(before.sum("leased_submit_demands_total"), 12.0);
        assert_eq!(after.max("leased_submit_demands_total"), 17.0);
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.sum("leased_submit_demands_total"), 20.0);
        assert_eq!(d.hist_mean("lat"), 4.0);
        assert_eq!(d.hist_quantile("lat", 0.5), 3.0);
        assert_eq!(d.hist_quantile("lat", 0.25), 2.0);
        assert_eq!(d.hist_quantile("lat", 0.75), 5.0);
    }
}
