//! The served run: a server process built from this package, driven over
//! one loopback connection by a sender thread and a reply-reader thread.

use crate::report::{cpu_seconds, involuntary_switches, rss_peak_mib};
use crate::workload::{Plan, Workload, ROUNDS};
use rtim_core::{EngineStats, PersistOptions, Solution};
use rtim_server::protocol::{encode_frame, read_frame};
use rtim_server::{Frame, RtimServer, ServerConfig};
use rtim_stream::Action;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Throw-away server starts before the measured run's own start and again
/// after each capacity leg, so the timed starts are spread over the whole
/// run instead of sampling the machine in one fraction of a second.
const SETUP_PROBES: usize = 4;
/// Restarts on the persistence directory at the end of a durable run.  A
/// run without persistence restarts on the replay's recovery directory
/// once after each capacity leg instead, which spreads the restarts over
/// the run the way the set-up probes are.
const RECOVERY_RESTARTS: usize = 14;
/// Requests the closed loop keeps outstanding on top of the engine queue
/// (its capacity is 64 commands), so the queue never runs dry.
const WINDOW: u64 = 128;
/// Sequential QUERY round trips on an idle queue (traced runs).
const QUERY_PROBES: usize = 100;
/// The open-loop sender spins for the last stretch before a due time.
const SPIN_NS: u64 = 200_000;
/// A reply that takes longer than this fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Correlation ids: INGEST of frame i is 2i, the QUERY after it 2i+1;
/// stand-alone requests count down from the top of the space.
const LONE_CORR: u32 = u32::MAX - 1024;

/// The server role of this binary: serve `workload` on an ephemeral
/// loopback port (with persistence in `dir`, if given), print the address
/// on stdout, and run until killed.
pub fn serve(workload: &Workload, dir: Option<&Path>) -> ! {
    let mut config = ServerConfig::new(workload.sim_config(), workload.kind);
    if let Some(dir) = dir {
        config = config.with_persistence(
            PersistOptions::new(dir)
                .with_snapshot_every_slides(workload.snapshot_every.unwrap_or(0)),
        );
    }
    let server = match RtimServer::bind("127.0.0.1:0", config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("perfbench serve: bind failed: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", server.local_addr());
    std::io::stdout().flush().expect("flush address line");
    server.wait();
    std::process::exit(0);
}

/// CPU placement.  The server, with all its threads, runs on CPU 0 and
/// the generator on CPU 1: on a 2-vCPU virtual machine the two-thread
/// pool, unpinned, drew hypervisor steal of 30-50% (measured with
/// `/proc/stat`) and its capacity spread several times wider than pinned.
/// The price is that the pool's two workers share one core, so the pool
/// workload measures the pool's hand-off, query and placement costs but
/// not its parallel speed-up.
///
/// Placement is inherited: the spawning thread moves to the server's CPU
/// just before a spawn and back to the generator's once the timed start
/// is over, so no helper process sits inside a timed interval.  Without
/// `taskset`, or with one CPU, both run unpinned.
const SERVER_CPU: u32 = 0;
const GENERATOR_CPU: u32 = 1;

pub fn pinning() -> bool {
    static PINNED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *PINNED.get_or_init(|| crate::report::nproc() >= 2 && move_self(GENERATOR_CPU))
}

/// Moves the calling thread to `cpu`; threads and processes it starts
/// afterwards inherit the placement.
fn move_self(cpu: u32) -> bool {
    let Some(tid) = own_tid() else {
        return false;
    };
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The calling thread's kernel id.
fn own_tid() -> Option<String> {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|t| t.to_string_lossy().into_owned()))
}

/// Ends a timed start: the calling thread returns to the generator's CPU.
fn back_to_generator_cpu() {
    if pinning() {
        move_self(GENERATOR_CPU);
    }
}

/// Keeps both CPUs out of the idle state while a freshness segment runs.
///
/// An idle virtual CPU halts, and a request or reply that wakes it then
/// waits for the hypervisor to put it back on a host core.  Between the
/// open-loop pairs both CPUs are idle, so without this every pair would
/// pay that wait twice (the server's CPU for the request, the generator's
/// for the reply), and on a shared host the wait grows with the
/// neighbours' load: it moved sic-pool-small's ~1 ms freshness by a third
/// from run to run.  One `SCHED_IDLE` spinner per CPU keeps each CPU
/// running; the kernel gives a woken ordinary thread the CPU at once, so
/// the server and the generator still run as soon as they are woken.
/// Inactive (no spinners) when the run is not pinned.
struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts the spinners and returns once each sits on its CPU at idle
    /// priority.
    fn start() -> KeepAwake {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let mut spinners = Vec::new();
        if pinning() {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            for cpu in [SERVER_CPU, GENERATOR_CPU] {
                let (stop, ready) = (stop.clone(), ready_tx.clone());
                spinners.push(std::thread::spawn(move || {
                    let placed = move_self(cpu) && idle_priority();
                    let _ = ready.send(placed);
                    if !placed {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }));
            }
            drop(ready_tx);
            for _ in 0..spinners.len() {
                if ready_rx.recv().is_err() {
                    break;
                }
            }
        }
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            let _ = s.join();
        }
    }
}

/// Puts the calling thread in the `SCHED_IDLE` class.
fn idle_priority() -> bool {
    let Some(tid) = own_tid() else {
        return false;
    };
    Command::new("chrt")
        .args(["--idle", "-p", "0", &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// A running server process; killed (SIGKILL) and reaped on drop.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server role and waits for its address.  Returns the
    /// instant just before the spawn, where a timed start begins.
    pub fn spawn(workload: &Workload, dir: Option<&Path>) -> Result<(ServerProc, Instant), String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        if pinning() {
            move_self(SERVER_CPU);
        }
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg(workload.name);
        if let Some(dir) = dir {
            cmd.arg(dir);
        }
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read.ok().and_then(|_| line.trim().parse().ok()) {
            Some(addr) => addr,
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address ({line:?})"));
            }
        };
        let server = ServerProc {
            child,
            _stdout: stdout,
            addr,
        };
        Ok((server, started))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Counts the bytes a reader hands out.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One client connection, split into its write half and a buffered,
/// byte-counting read half.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<Counting<TcpStream>>,
    sent_bytes: u64,
}

impl Conn {
    /// Connects and consumes the server's HELLO.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            writer: stream,
            reader: BufReader::with_capacity(
                1 << 16,
                Counting {
                    inner: reader,
                    bytes: 0,
                },
            ),
            sent_bytes: 0,
        };
        match read_frame(&mut conn.reader).map_err(|e| e.to_string())? {
            Frame::Hello { .. } => Ok(conn),
            other => Err(format!("{other:?} instead of HELLO")),
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.sent_bytes += bytes.len() as u64;
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// One request and its reply, with nothing else in flight.
    fn round_trip(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.send(&encode_frame(frame))?;
        read_frame(&mut self.reader).map_err(|e| format!("reply: {e}"))
    }

    pub fn bytes(&self) -> u64 {
        self.sent_bytes + self.reader.get_ref().bytes
    }
}

/// A reply as the benchmark needs it.
enum Reply {
    Ack(u64),
    Solution(Solution),
    Other(String),
}

/// One received reply: its correlation id and arrival time (ns since the
/// run's base instant).
struct Received {
    corr: u32,
    at: u64,
    reply: Reply,
}

/// Replies received so far, shared between reader and sender so the
/// sender can hold its window; `broken` stops a sender whose reader died.
#[derive(Default)]
struct Progress {
    state: Mutex<(u64, bool)>,
    changed: Condvar,
}

impl Progress {
    fn bump(&self, broken: bool) {
        let mut s = self.state.lock().expect("progress lock poisoned");
        s.0 += 1;
        s.1 |= broken;
        self.changed.notify_all();
    }

    /// Blocks until fewer than `window` of `sent` requests are unanswered;
    /// returns false if the reader broke.
    fn wait_window(&self, sent: u64, window: u64) -> bool {
        let mut s = self.state.lock().expect("progress lock poisoned");
        while sent - s.0 >= window && !s.1 {
            s = self.changed.wait(s).expect("progress lock poisoned");
        }
        !s.1
    }
}

/// Reads `n` correlated replies.  Errors end the read early and are
/// returned with what arrived before them.
fn read_replies<R: Read>(
    reader: &mut R,
    n: usize,
    base: Instant,
    progress: &Progress,
) -> (Vec<Received>, Option<String>) {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let frame = match read_frame(&mut *reader) {
            Ok(frame) => frame,
            Err(e) => {
                progress.bump(true);
                return (out, Some(format!("reply stream: {e}")));
            }
        };
        let at = base.elapsed().as_nanos() as u64;
        let corr = frame.corr().unwrap_or(u32::MAX);
        let reply = match frame {
            Frame::Ack { accepted, .. } => Reply::Ack(accepted),
            Frame::Solution { solution, .. } => Reply::Solution(solution),
            other => Reply::Other(format!("{other:?}")),
        };
        out.push(Received { corr, at, reply });
        progress.bump(false);
    }
    (out, None)
}

/// Pre-encoded requests of one trace.
pub struct Wire {
    ingest: Vec<Vec<u8>>,
    query: Vec<Vec<u8>>,
    lens: Vec<u64>,
}

impl Wire {
    pub fn encode(frames: &[Vec<Action>]) -> Wire {
        let corr = |i: usize| u32::try_from(i).expect("frame count fits in u32");
        Wire {
            ingest: frames
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    encode_frame(&Frame::Ingest {
                        actions: f.clone(),
                        corr: Some(2 * corr(i)),
                    })
                })
                .collect(),
            query: (0..frames.len())
                .map(|i| {
                    encode_frame(&Frame::Query {
                        corr: Some(2 * corr(i) + 1),
                    })
                })
                .collect(),
            lens: frames.iter().map(|f| f.len() as u64).collect(),
        }
    }
}

/// Everything the served run measured.
#[derive(Default)]
pub struct Served {
    pub setup_s: Vec<f64>,
    /// Each capacity leg's own rate (reported in the run's notes).
    pub capacity_legs: Vec<f64>,
    /// Actions of all capacity legs over their summed durations.
    pub capacity: f64,
    pub cpu_us_per_action: f64,
    pub involuntary_per_s: f64,
    pub max_queue_depth: u64,
    pub window_full_ms: f64,
    pub ack_rtt_us: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub query_rtt_us: Vec<f64>,
    /// Freshness samples in schedule order.
    pub fresh_ms: Vec<f64>,
    /// (frame index the answer follows, answer), in frame order.
    pub answers: Vec<(usize, Solution)>,
    pub rss_peak_mib: f64,
    pub bytes_per_action: f64,
    /// Restart times, spawn to the first QUERY answer.
    pub recover_s: Vec<f64>,
    /// A restarted server answered differently from the replay.
    pub recovered_differently: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (phase, attempted, failed), in the order the phases first ran.
    pub by_phase: Vec<(&'static str, u64, u64)>,
    pub errors: Vec<String>,
}

impl Served {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// The request counts a phase starts from; see [`Served::tally`].
    fn mark(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// Adds the requests attempted and failed since `mark` to `phase`.
    fn tally(&mut self, phase: &'static str, mark: (u64, u64)) {
        let (attempted, failed) = (self.attempted - mark.0, self.failed - mark.1);
        match self.by_phase.iter_mut().find(|p| p.0 == phase) {
            Some(p) => {
                p.1 += attempted;
                p.2 += failed;
            }
            None => self.by_phase.push((phase, attempted, failed)),
        }
    }

    /// Accounts `replies` to the frames they answer; returns the arrival
    /// time of each reply by correlation id.
    fn absorb(&mut self, wire: &Wire, replies: Vec<Received>) -> Vec<(u32, u64)> {
        let mut times = Vec::with_capacity(replies.len());
        for r in replies {
            times.push((r.corr, r.at));
            match r.reply {
                Reply::Ack(n) => {
                    let frame = (r.corr / 2) as usize;
                    if r.corr % 2 != 0 || wire.lens.get(frame) != Some(&n) {
                        self.fail(format!("ACK corr {} for {n} actions", r.corr));
                    }
                }
                Reply::Solution(s) if r.corr < LONE_CORR => {
                    self.answers.push(((r.corr / 2) as usize, s));
                }
                Reply::Solution(_) => {}
                Reply::Other(what) => self.fail(format!("corr {}: {what}", r.corr)),
            }
        }
        times
    }
}

/// Closed loop over `frames` (each optionally followed by a QUERY), then
/// one QUERY answered after the last frame.  Returns (first send, reply to
/// the closing QUERY, answer to it, nanoseconds the window sat full).
fn closed_loop(
    conn: &mut Conn,
    wire: &Wire,
    frames: std::ops::Range<usize>,
    with_query: bool,
    closing_corr: u32,
    base: Instant,
    out: &mut Served,
) -> Option<(u64, u64, Solution, u64)> {
    let per_frame = if with_query { 2 } else { 1 };
    let expected = frames.len() * per_frame + 1;
    let progress = Progress::default();
    let closing = encode_frame(&Frame::Query {
        corr: Some(closing_corr),
    });
    let Conn {
        writer,
        reader,
        sent_bytes,
    } = conn;
    let (first, wait_ns, sent, (replies, err)) = std::thread::scope(|s| {
        let progress = &progress;
        let reading = s.spawn(move || read_replies(reader, expected, base, progress));
        let first = base.elapsed().as_nanos() as u64;
        let mut sent = 0u64;
        let mut wait_ns = 0u64;
        let mut send = |bytes: &[u8], sent: &mut u64| -> bool {
            *sent_bytes += bytes.len() as u64;
            *sent += 1;
            writer.write_all(bytes).is_ok()
        };
        let mut ok = true;
        for i in frames.clone() {
            let t = Instant::now();
            if !progress.wait_window(sent, WINDOW) {
                ok = false;
                break;
            }
            wait_ns += t.elapsed().as_nanos() as u64;
            ok &= send(&wire.ingest[i], &mut sent);
            if with_query {
                ok &= send(&wire.query[i], &mut sent);
            }
            if !ok {
                break;
            }
        }
        if ok {
            send(&closing, &mut sent);
        }
        (
            first,
            wait_ns,
            sent,
            reading.join().expect("reply reader panicked"),
        )
    });
    out.attempted += sent;
    if let Some(e) = err {
        out.failed += (expected - replies.len()) as u64;
        out.errors.push(e);
    }
    let closing_reply = replies.iter().find_map(|r| match &r.reply {
        Reply::Solution(s) if r.corr == closing_corr => Some((r.at, s.clone())),
        _ => None,
    });
    out.absorb(wire, replies);
    let (at, answer) = closing_reply?;
    Some((first, at, answer, wait_ns))
}

/// Open loop: INGEST+QUERY pairs at `rate` per second from a fixed
/// schedule.  Records each pair's latency from its *scheduled* send time
/// to its QUERY reply, the ACK round trip and the sender's lateness.
fn open_loop(
    conn: &mut Conn,
    wire: &Wire,
    frames: std::ops::Range<usize>,
    rate: f64,
    base: Instant,
    out: &mut Served,
) {
    let expected = frames.len() * 2;
    let progress = Progress::default();
    let Conn {
        writer,
        reader,
        sent_bytes,
    } = conn;
    let awake = KeepAwake::start();
    let start = base.elapsed().as_nanos() as u64 + 1_000_000;
    let due = |j: usize| start + (j as f64 * 1e9 / rate) as u64;
    let (sent_at, (replies, err)) = std::thread::scope(|s| {
        let progress = &progress;
        let reading = s.spawn(move || read_replies(reader, expected, base, progress));
        let mut sent_at = Vec::with_capacity(frames.len());
        let mut pair = Vec::new();
        for (j, i) in frames.clone().enumerate() {
            // Sleep to just short of the due time, then spin: a timer
            // wakeup alone runs tens of microseconds late.
            let now = base.elapsed().as_nanos() as u64;
            if now + SPIN_NS < due(j) {
                std::thread::sleep(Duration::from_nanos(due(j) - SPIN_NS - now));
            }
            while (base.elapsed().as_nanos() as u64) < due(j) {
                std::hint::spin_loop();
            }
            sent_at.push(base.elapsed().as_nanos() as u64);
            pair.clear();
            pair.extend_from_slice(&wire.ingest[i]);
            pair.extend_from_slice(&wire.query[i]);
            *sent_bytes += pair.len() as u64;
            if writer.write_all(&pair).is_err() {
                break;
            }
        }
        (sent_at, reading.join().expect("reply reader panicked"))
    });
    drop(awake);
    out.attempted += 2 * sent_at.len() as u64;
    if let Some(e) = err {
        out.failed += (expected - replies.len()) as u64;
        out.errors.push(e);
    }
    let times = out.absorb(wire, replies);
    let first = frames.start;
    // In schedule order; a pair never answered misses every latency limit.
    let mut fresh = vec![f64::INFINITY; frames.len()];
    for (corr, at) in times {
        let j = (corr / 2) as usize - first;
        if corr % 2 == 1 {
            fresh[j] = at.saturating_sub(due(j)) as f64 / 1e6;
        } else {
            out.ack_rtt_us
                .push(at.saturating_sub(sent_at[j]) as f64 / 1e3);
        }
    }
    for (j, &at) in sent_at.iter().enumerate() {
        out.late_ms.push(at.saturating_sub(due(j)) as f64 / 1e6);
    }
    out.fresh_ms.extend(fresh);
}

fn stats(conn: &mut Conn, out: &mut Served) -> Option<EngineStats> {
    out.attempted += 1;
    match conn.round_trip(&Frame::Stats {
        corr: Some(LONE_CORR + 1),
    }) {
        Ok(Frame::StatsReply { stats, .. }) => Some(stats),
        other => {
            out.fail(format!("STATS: {other:?}"));
            None
        }
    }
}

/// Starts a server and times it to the ACK of the first frame.
fn start(
    workload: &Workload,
    dir: Option<&Path>,
    wire: &Wire,
    out: &mut Served,
) -> Result<(ServerProc, Conn), String> {
    let (server, t) = ServerProc::spawn(workload, dir)?;
    let mut conn = Conn::open(server.addr)?;
    conn.send(&wire.ingest[0])?;
    out.attempted += 1;
    match read_frame(&mut conn.reader) {
        Ok(Frame::Ack { accepted, .. }) if accepted == wire.lens[0] => {}
        other => return Err(format!("first INGEST answered {other:?}")),
    }
    out.setup_s.push(t.elapsed().as_secs_f64());
    back_to_generator_cpu();
    Ok((server, conn))
}

/// [`SETUP_PROBES`] timed starts of throw-away servers (on empty
/// persistence directories for a durable workload).
fn probe_starts(
    workload: &Workload,
    wire: &Wire,
    work: &Path,
    out: &mut Served,
) -> Result<(), String> {
    let durable = workload.snapshot_every.is_some();
    for p in 0..SETUP_PROBES {
        let dir = work.join(format!("setup-{p}"));
        fresh_dir(&dir)?;
        let started = start(workload, durable.then_some(dir.as_path()), wire, out)?;
        drop(started);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// The whole served run.  `work` is a private scratch directory; for a
/// durable workload the server's persistence directory is left at
/// `work/serve` (the pristine copy every restart starts from).  With
/// `recovery` (a directory and the answer it must recover), one restart
/// follows each capacity leg.
pub fn run(
    workload: &Workload,
    plan: &Plan,
    wire: &Wire,
    work: &Path,
    probe_queries: bool,
    recovery: Option<(&Path, &Solution)>,
) -> Result<Served, String> {
    let mut out = Served::default();
    let durable = workload.snapshot_every.is_some();
    let mark = out.mark();
    probe_starts(workload, wire, work, &mut out)?;

    let serve_dir = work.join("serve");
    fresh_dir(&serve_dir)?;
    let (server, mut conn) = start(
        workload,
        durable.then_some(serve_dir.as_path()),
        wire,
        &mut out,
    )?;
    let pid = server.pid();
    let base = Instant::now();
    out.tally("setup", mark);

    // Rounds of a closed-loop capacity leg and an open-loop freshness
    // segment at the workload's fixed rate.
    let (mut cpu_s, mut switches, mut busy) = (0.0, 0u64, 0.0);
    let (mut window_full, mut leg_ns, mut leg_actions_sum) = (0u64, 0u64, 0u64);
    for round in 0..ROUNDS {
        let frames = plan.leg(round);
        let leg_actions: u64 = wire.lens[frames.clone()].iter().sum();
        let (cpu0, switches0, t0) = (cpu_seconds(pid), involuntary_switches(pid), Instant::now());
        let corr = LONE_CORR + 2 + round as u32;
        let mark = out.mark();
        let Some((first, replied, answer, wait_ns)) = closed_loop(
            &mut conn,
            wire,
            frames.clone(),
            workload.query_every_frame,
            corr,
            base,
            &mut out,
        ) else {
            return Err(format!("capacity leg {round} failed: {:?}", out.errors));
        };
        cpu_s += cpu_seconds(pid) - cpu0;
        switches += involuntary_switches(pid).saturating_sub(switches0);
        busy += t0.elapsed().as_secs_f64();
        out.answers.push((frames.end - 1, answer));
        out.capacity_legs
            .push(leg_actions as f64 / ((replied - first) as f64 / 1e9));
        leg_actions_sum += leg_actions;
        leg_ns += replied - first;
        window_full += wait_ns;
        out.tally("capacity", mark);
        let mark = out.mark();
        probe_starts(workload, wire, work, &mut out)?;
        out.tally("setup", mark);
        if let Some((pristine, expected)) = recovery {
            restart(workload, pristine, expected, work, &mut out)?;
        }
        let mark = out.mark();
        open_loop(
            &mut conn,
            wire,
            plan.segment(round),
            workload.fresh_rate,
            base,
            &mut out,
        );
        out.tally("freshness", mark);
    }
    out.capacity = leg_actions_sum as f64 / (leg_ns as f64 / 1e9);
    out.cpu_us_per_action = cpu_s * 1e6 / leg_actions_sum as f64;
    out.involuntary_per_s = switches as f64 / busy;
    out.window_full_ms = window_full as f64 / 1e6;
    // Cumulative since start; only the capacity legs fill the queue.
    let mark = out.mark();
    out.max_queue_depth = stats(&mut conn, &mut out).map_or(0, |s| s.max_queue_depth);

    // The tail: a durable workload takes an explicit snapshot here, so the
    // kill point below replays exactly the suffix frames on every restart.
    if durable {
        out.attempted += 1;
        match conn.round_trip(&Frame::Snapshot) {
            Ok(Frame::SnapshotReply(_)) => {}
            other => out.fail(format!("SNAPSHOT: {other:?}")),
        }
    }
    let suffix = plan.suffix();
    let Some((_, _, answer, _)) = closed_loop(
        &mut conn,
        wire,
        suffix.clone(),
        false,
        LONE_CORR + 100,
        base,
        &mut out,
    ) else {
        return Err(format!("suffix failed: {:?}", out.errors));
    };
    out.answers.push((suffix.end - 1, answer));
    if let Some(s) = stats(&mut conn, &mut out) {
        if durable
            && (s.snapshot_age_slides != plan.suffix_frames as u64 || s.durability_state != 1)
        {
            out.fail(format!(
                "kill point not reached: snapshot age {} slides, durability state {}",
                s.snapshot_age_slides, s.durability_state
            ));
        }
    }
    if probe_queries {
        for _ in 0..QUERY_PROBES {
            let t = Instant::now();
            out.attempted += 1;
            match conn.round_trip(&Frame::Query {
                corr: Some(LONE_CORR + 200),
            }) {
                Ok(Frame::Solution { .. }) => {
                    out.query_rtt_us.push(t.elapsed().as_nanos() as f64 / 1e3)
                }
                other => out.fail(format!("probe QUERY: {other:?}")),
            }
        }
    }
    out.tally("tail", mark);
    out.rss_peak_mib = rss_peak_mib(pid);
    let total_actions: u64 = wire.lens.iter().sum();
    out.bytes_per_action = conn.bytes() as f64 / total_actions as f64;
    drop(conn);
    drop(server); // SIGKILL: the deterministic kill point
    out.answers.sort_by_key(|(frame, _)| *frame);
    Ok(out)
}

/// Copies the flat persistence directory `from` into a fresh `to` and
/// flushes the copies to disk, so no write-back of them runs while a
/// restart is timed.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        std::fs::File::open(&target)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", target.display()))?;
    }
    std::fs::File::open(to)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("sync {}: {e}", to.display()))
}

/// Restarts the server on a fresh copy of `pristine` and times the start
/// to the first QUERY answer, which must equal `expected`.
fn restart(
    workload: &Workload,
    pristine: &Path,
    expected: &Solution,
    work: &Path,
    out: &mut Served,
) -> Result<(), String> {
    let dir: PathBuf = work.join("recover");
    copy_dir(pristine, &dir)?;
    let mark = out.mark();
    let (server, t) = ServerProc::spawn(workload, Some(&dir))?;
    let mut conn = Conn::open(server.addr)?;
    out.attempted += 1;
    match conn.round_trip(&Frame::Query { corr: None }) {
        Ok(Frame::Solution { solution, .. }) => {
            out.recover_s.push(t.elapsed().as_secs_f64());
            out.recovered_differently |= !crate::replay::same_answer(&solution, expected);
        }
        other => out.fail(format!("recovery QUERY: {other:?}")),
    }
    drop(conn);
    drop(server);
    back_to_generator_cpu();
    out.tally("recovery", mark);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

/// [`RECOVERY_RESTARTS`] restarts on copies of `pristine`, one after the
/// other (see [`restart`]).
pub fn recover(
    workload: &Workload,
    pristine: &Path,
    expected: &Solution,
    work: &Path,
    out: &mut Served,
) -> Result<(), String> {
    for _ in 0..RECOVERY_RESTARTS {
        restart(workload, pristine, expected, work, out)?;
    }
    Ok(())
}
