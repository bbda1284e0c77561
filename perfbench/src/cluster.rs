//! Serving processes: `mobipriv-serve` nodes and routers booted with
//! their shipped defaults (only `--addr`, `--data-dir` and `--route`
//! are set), their CPU and peak memory read from `/proc`, and
//! restarts on the same address.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mobipriv_service::client;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// How long a booting node may take to answer `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// Pids of serving processes still running, for [`kill_all`].
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kills every serving process still running — the watchdog's exit
/// path, where no destructor will run.
pub fn kill_all() {
    let pids = std::mem::take(&mut *LIVE.lock().expect("live pids"));
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// One running `mobipriv-serve` process.
#[derive(Debug)]
pub struct Node {
    child: Option<Child>,
    serve: PathBuf,
    /// Flags besides `--addr`.
    flags: Vec<String>,
    /// `host:port` the node listens on.
    pub addr: String,
    log: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Node {
    /// Boots a node on an ephemeral port and waits until it answers
    /// `/healthz`. Its stderr goes to `log`.
    pub fn boot(serve: &Path, flags: &[String], log: &Path) -> std::io::Result<Node> {
        let mut node = Node {
            child: None,
            serve: serve.to_owned(),
            flags: flags.to_vec(),
            addr: "127.0.0.1:0".to_owned(),
            log: log.to_owned(),
            drain: None,
        };
        node.start()?;
        Ok(node)
    }

    fn start(&mut self) -> std::io::Result<()> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log)?;
        let mut child = Command::new(&self.serve)
            .arg("--addr")
            .arg(&self.addr)
            .args(&self.flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        LIVE.lock().expect("live pids").push(child.id());
        self.child = Some(child);
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        // "mobipriv-serve listening on http://127.0.0.1:PORT (...)"
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| std::io::Error::other(format!("unexpected startup line {line:?}")))?;
        self.addr = addr.to_owned();
        // Keep draining stdout so the node can never block on a full pipe;
        // the thread ends when the process does.
        self.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            if let Ok((200, _)) =
                client::request_with_timeout(&self.addr, "GET", "/healthz", b"", BOOT_TIMEOUT)
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::other(format!(
                    "{} never became healthy",
                    self.addr
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The node's `--data-dir`, if it has one.
    pub fn data_dir(&self) -> Option<PathBuf> {
        let at = self.flags.iter().position(|f| f == "--data-dir")?;
        self.flags.get(at + 1).map(PathBuf::from)
    }

    /// Kills the process and waits for it to end.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            LIVE.lock().expect("live pids").retain(|&p| p != child.id());
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }

    /// Kills the node and boots it again on the same address with the
    /// same flags (a durable node recovers from its data dir).
    pub fn restart(&mut self) -> std::io::Result<()> {
        self.stop();
        self.start()
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// User + system CPU seconds the process has used so far.
    pub fn cpu_s(&self) -> f64 {
        let Some(pid) = self.pid() else { return 0.0 };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            return 0.0;
        };
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
    }

    /// Peak resident set size (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let Some(pid) = self.pid() else { return 0.0 };
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The processes one workload serves from: either a single node, or a
/// router in front of shards.
#[derive(Debug)]
pub struct Cluster {
    /// Shards (or the single node).
    pub nodes: Vec<Node>,
    /// The router, when sharded.
    pub router: Option<Node>,
}

impl Cluster {
    /// One in-memory node.
    pub fn single(serve: &Path, dir: &Path) -> std::io::Result<Cluster> {
        let node = Node::boot(serve, &[], &dir.join("node.log"))?;
        Ok(Cluster {
            nodes: vec![node],
            router: None,
        })
    }

    /// `shards` durable nodes (data dirs under `dir`) behind a router.
    pub fn sharded(serve: &Path, dir: &Path, shards: usize) -> std::io::Result<Cluster> {
        let mut nodes = Vec::with_capacity(shards);
        for i in 0..shards {
            let data = dir.join(format!("shard{i}"));
            let flags = vec!["--data-dir".to_owned(), data.display().to_string()];
            nodes.push(Node::boot(
                serve,
                &flags,
                &dir.join(format!("shard{i}.log")),
            )?);
        }
        let route = nodes
            .iter()
            .map(|n| n.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let router = Node::boot(
            serve,
            &["--route".to_owned(), route],
            &dir.join("router.log"),
        )?;
        Ok(Cluster {
            nodes,
            router: Some(router),
        })
    }

    /// Where clients connect: the router when there is one.
    pub fn entry(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.nodes[0].addr,
        }
    }

    /// Shard addresses exactly as the router's `--route` list names
    /// them (rendezvous placement hashes these strings).
    pub fn shard_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr.clone()).collect()
    }

    fn all(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().chain(self.router.iter())
    }

    /// Summed CPU seconds of every serving process.
    pub fn cpu_s(&self) -> f64 {
        self.all().map(Node::cpu_s).sum()
    }

    /// Summed peak RSS of every serving process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.all().map(Node::peak_rss_mb).sum()
    }

    /// Stops every process (router first) and waits for each.
    pub fn stop(&mut self) {
        if let Some(r) = self.router.as_mut() {
            r.stop();
        }
        for n in &mut self.nodes {
            n.stop();
        }
    }
}
