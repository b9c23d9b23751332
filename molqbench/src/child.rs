//! The `molq serve` child process.
//!
//! Every serving window runs against the real binary, started with a fixed
//! flag set and an **empty environment**: `MOLQ_TRANSPORT`, `MOLQ_THREADS`
//! and `MOLQ_FAULTS` (and anything else the caller's shell exports) never
//! reach it, so a stray variable cannot change what is measured. The banner
//! the server prints on stderr tells the bench what it actually resolved.

use crate::client::Conn;
use molq_geom::Mbr;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take from spawn to its first `/health` 200.
const READY_TIMEOUT: Duration = Duration::from_secs(150);

/// Environment variables the server reads; the child must never see them.
pub const SERVER_ENV: [&str; 3] = ["MOLQ_TRANSPORT", "MOLQ_THREADS", "MOLQ_FAULTS"];

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, fixed at
/// 100 per second on every architecture the kernel exports to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// What one serving child is started with.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The layer CSVs, in layer order.
    pub csvs: Vec<PathBuf>,
    /// The explicit search space.
    pub bounds: Mbr,
    /// `--epsilon` for the approximate tier; `None` builds exactly.
    pub epsilon: Option<f64>,
    /// `--snapshot-dir`.
    pub snapshot_dir: PathBuf,
}

impl ServeSpec {
    /// The fixed argument list: inputs, bounds, an ephemeral port, the
    /// snapshot directory and (approximate tier only) ε. Everything else
    /// stays at the server's defaults.
    pub fn args(&self) -> Vec<String> {
        let mut a = vec!["serve".to_string()];
        for csv in &self.csvs {
            a.push("--input".into());
            a.push(csv.display().to_string());
        }
        let b = self.bounds;
        a.push("--bounds".into());
        a.push(format!("{},{},{},{}", b.min_x, b.min_y, b.max_x, b.max_y));
        a.push("--port".into());
        a.push("0".into());
        a.push("--snapshot-dir".into());
        a.push(self.snapshot_dir.display().to_string());
        if let Some(e) = self.epsilon {
            a.push("--epsilon".into());
            a.push(e.to_string());
        }
        a
    }
}

/// What the serve banner reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Banner {
    /// Object sets loaded.
    pub sets: usize,
    /// Objects across all sets.
    pub objects: usize,
    /// OVRs of the served diagram.
    pub ovrs: usize,
    /// `true` when the diagram was restored from the snapshot directory.
    pub restored: bool,
    /// Resolved scan threads.
    pub threads: usize,
    /// Resolved transport.
    pub transport: String,
    /// Bound address.
    pub addr: Option<SocketAddr>,
}

impl Banner {
    /// Folds one banner line in; returns `true` once the address line (the
    /// last one before serving) has been seen.
    fn absorb(&mut self, line: &str) -> Result<bool, String> {
        let Some((key, value)) = line.split_once(':') else {
            return Ok(false);
        };
        let value = value.trim();
        match key.trim() {
            // `default (3 sets, 6000 objects, 19147 OVRs, built in 191ms)`
            "dataset" => {
                let inner = value
                    .split_once('(')
                    .map(|(_, r)| r)
                    .ok_or_else(|| format!("unexpected banner line {line:?}"))?;
                let mut fields = inner.split(", ");
                let mut number = |what: &str| -> Result<usize, String> {
                    fields
                        .next()
                        .and_then(|f| f.split_whitespace().next())
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| format!("banner lacks the {what} count: {line:?}"))
                };
                self.sets = number("set")?;
                self.objects = number("object")?;
                self.ovrs = number("OVR")?;
                self.restored = inner.contains("restored from snapshot");
            }
            "threads" => {
                self.threads = value
                    .parse()
                    .map_err(|e| format!("banner threads {value:?}: {e}"))?
            }
            "transport" => self.transport = value.to_string(),
            "address" => {
                let addr = value.trim_start_matches("http://");
                self.addr = Some(
                    addr.parse()
                        .map_err(|e| format!("banner address {addr:?}: {e}"))?,
                );
                return Ok(true);
            }
            _ => {}
        }
        Ok(false)
    }
}

/// A running `molq serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// The banner, including the bound address.
    pub banner: Banner,
    /// Spawn to the first `/health` 200.
    pub ready: Duration,
    log: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns `molq serve` and waits until it answers `/health` with 200.
    pub fn start(molq: &Path, spec: &ServeSpec) -> Result<Server, String> {
        let mut cmd = Command::new(molq);
        cmd.args(spec.args())
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", molq.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // The reader forwards lines until the address line, then keeps
        // draining (so the child never blocks on a full pipe) and returns
        // the tail of the log for diagnostics.
        let log = std::thread::spawn(move || {
            let mut rest = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line.clone()).is_err() && rest.len() < 64 * 1024 {
                    rest.push_str(&line);
                    rest.push('\n');
                }
            }
            rest
        });
        let mut server = Server {
            child,
            banner: Banner::default(),
            ready: Duration::ZERO,
            log: Some(log),
        };
        let mut head = String::new();
        loop {
            let left = READY_TIMEOUT.saturating_sub(spawned.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    head.push_str(&line);
                    head.push('\n');
                    if server.banner.absorb(&line)? {
                        break;
                    }
                }
                Err(_) => {
                    let tail = server.stop();
                    return Err(format!(
                        "molq serve never printed its address\n{head}{tail}"
                    ));
                }
            }
        }
        drop(rx);
        let addr = server.banner.addr.expect("address line parsed");
        loop {
            let ok = Conn::connect(addr)
                .and_then(|mut c| c.get("/health"))
                .is_ok_and(|r| r.status == 200);
            if ok {
                server.ready = spawned.elapsed();
                return Ok(server);
            }
            if spawned.elapsed() > READY_TIMEOUT {
                return Err(format!("molq serve at {addr} never became healthy\n{head}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.banner.addr.expect("a started server has an address")
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process, waits for it, and returns what it logged after
    /// the banner.
    pub fn stop(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    /// User plus system CPU seconds the process has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = proc_file(self.pid(), "stat")?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
        let after = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .map(|v| v as f64)
                .ok_or_else(|| format!("malformed /proc stat field {i}"))
        };
        Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = proc_file(self.pid(), "status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// The server-relevant variables present in the child's environment
    /// (empty for a correctly sanitized child).
    pub fn leaked_env(&self) -> Result<Vec<String>, String> {
        let raw = std::fs::read(format!("/proc/{}/environ", self.pid()))
            .map_err(|e| format!("reading the child environment: {e}"))?;
        Ok(raw
            .split(|&b| b == 0)
            .filter_map(|kv| std::str::from_utf8(kv).ok())
            .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
            .filter(|k| SERVER_ENV.contains(k))
            .map(str::to_string)
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn proc_file(pid: u32, name: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("/proc/{pid}/{name}"))
        .map_err(|e| format!("/proc/{pid}/{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_lines_parse() {
        let mut b = Banner::default();
        let lines = [
            "dataset   : default (3 sets, 6000 objects, 19147 OVRs, built in 191.4ms)",
            "threads   : 2",
            "transport : pool",
        ];
        for l in lines {
            assert!(!b.absorb(l).unwrap());
        }
        assert!(b.absorb("address   : http://127.0.0.1:40123").unwrap());
        assert_eq!((b.sets, b.objects, b.ovrs), (3, 6000, 19147));
        assert!(!b.restored);
        assert_eq!((b.threads, b.transport.as_str()), (2, "pool"));
        assert_eq!(b.addr.unwrap().port(), 40123);
        let mut r = Banner::default();
        r.absorb(
            "dataset   : default (3 sets, 2400 objects, 7771 OVRs, restored from snapshot in 3ms)",
        )
        .unwrap();
        assert!(r.restored);
        assert!(Banner::default().absorb("dataset : default").is_err());
    }

    #[test]
    fn serve_args_are_fixed() {
        let spec = ServeSpec {
            csvs: vec!["a.csv".into(), "b.csv".into()],
            bounds: Mbr::new(0.0, 0.0, 10.0, 20.0),
            epsilon: Some(0.5),
            snapshot_dir: "snap".into(),
        };
        assert_eq!(
            spec.args().join(" "),
            "serve --input a.csv --input b.csv --bounds 0,0,10,20 --port 0 \
             --snapshot-dir snap --epsilon 0.5"
        );
    }
}
