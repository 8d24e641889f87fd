//! Crash-consistent serialization of the exchange state.
//!
//! The daemon's entire mutable state — trace cursor, active and pending
//! task sets, cluster outage mask, last assignment with the prices the
//! next resolve starts from, and SLO counters — round-trips through a
//! line-oriented text document with a versioned header
//! (`mfcp-serve-snapshot v3`), in the same dependency-free style as the
//! `mfcp-nn` checkpoint format. v3 dropped the warm-start cache section
//! of v1/v2; those documents still restore, with the section read and
//! skipped (v1 also has no prices, so its solution restores with none). Floats are
//! written with `{:e}` round-trip precision, so a restored daemon
//! resumes with bit-identical numeric state; writes go through
//! [`mfcp_nn::persist::atomic_write`] (temp file + fsync + rename), so
//! a kill at any instant leaves either the previous complete snapshot
//! or the new complete snapshot — never a torn one.
//!
//! Learned predictors are not inlined in the document: they reuse the
//! `mfcp-core` checkpoint format (one `cluster_<i>.mfcp` per cluster,
//! also written atomically) in a `predictors/` directory next to the
//! snapshot, and the document records only their count.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::Path;

use mfcp_linalg::Matrix;
use mfcp_optim::learned::prices_admissible;
use mfcp_platform::task::{Corpus, TaskFamily, TaskSpec};

/// Versioned first line of every snapshot document.
pub const SNAPSHOT_HEADER: &str = "mfcp-serve-snapshot v3";

/// Header of the format with a warm-start cache section, which
/// [`from_document`] still reads and skips.
const SNAPSHOT_HEADER_V2: &str = "mfcp-serve-snapshot v2";

/// Header of the first format, which [`from_document`] still reads: it
/// has no `prices` lines, so its solutions restore with none.
const SNAPSHOT_HEADER_V1: &str = "mfcp-serve-snapshot v1";

/// File name of the snapshot document inside a snapshot directory.
pub const SNAPSHOT_FILE: &str = "state.snap";

/// Subdirectory holding the learned-predictor checkpoint, when present.
pub const PREDICTOR_DIR: &str = "predictors";

/// Errors from writing or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// The document was read but is not a valid snapshot (truncated,
    /// corrupted, or an unsupported version).
    Format(String),
    /// The last solution's prices cannot start a resolve: they are
    /// neither empty nor `clusters + 1` finite values within
    /// [`mfcp_optim::learned::DUAL_ABS_BOUND`].
    Prices {
        /// Rows of the last solution's assignment (the cluster pool).
        clusters: usize,
        /// Number of prices in the document.
        len: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(m) => write!(f, "snapshot format error: {m}"),
            SnapshotError::Prices { clusters, len } => write!(
                f,
                "snapshot prices unusable: {len} values for {clusters} clusters \
                 (need none, or {} finite values in scale)",
                clusters + 1
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn err(message: impl Into<String>) -> SnapshotError {
    SnapshotError::Format(message.into())
}

/// SLO accounting persisted with the daemon (the counters a restored
/// daemon keeps incrementing, so a day's totals survive a crash).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Arrivals accepted into the pending queue.
    pub admitted: u64,
    /// Arrivals rejected by admission control.
    pub shed: u64,
    /// Resolves whose solve blew the request deadline (and degraded).
    pub deadline_miss: u64,
    /// Matching solves performed.
    pub resolves: u64,
    /// Resolves forced onto the greedy-only ladder by overload.
    pub degraded: u64,
    /// High-water mark of the pending queue.
    pub max_pending_seen: u64,
}

/// The last solved assignment, kept for warm-starting the next resolve
/// and reported as the daemon's current matching.
#[derive(Debug, Clone, PartialEq)]
pub struct LastSolution {
    /// Task ids in column order of `x`.
    pub ids: Vec<u64>,
    /// Column-stochastic assignment over the full cluster pool.
    pub x: Matrix,
    /// Objective at `x`.
    pub objective: f64,
    /// The solve's final prices over the full pool (one load price per
    /// cluster, zero for downed ones, then the reliability price);
    /// empty when the solve kept none. The next resolve starts from
    /// them.
    pub prices: Vec<f64>,
}

/// Everything the daemon must persist to resume deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExchangeState {
    /// Number of trace events already applied.
    pub cursor: u64,
    /// Running tasks by id (ordered, so matrix columns are stable).
    pub active: BTreeMap<u64, TaskSpec>,
    /// Admitted tasks awaiting the next resolve.
    pub pending: VecDeque<(u64, TaskSpec)>,
    /// Clusters currently in outage.
    pub down: BTreeSet<usize>,
    /// Last solved matching, if any.
    pub last: Option<LastSolution>,
    /// SLO counters.
    pub counters: ServeCounters,
}

fn family_tag(f: TaskFamily) -> &'static str {
    match f {
        TaskFamily::Cnn => "cnn",
        TaskFamily::Transformer => "transformer",
        TaskFamily::Rnn => "rnn",
    }
}

fn corpus_tag(c: Corpus) -> &'static str {
    match c {
        Corpus::Cifar10 => "cifar10",
        Corpus::ImageNet => "imagenet",
        Corpus::Europarl => "europarl",
    }
}

fn parse_family(tag: &str) -> Result<TaskFamily, SnapshotError> {
    match tag {
        "cnn" => Ok(TaskFamily::Cnn),
        "transformer" => Ok(TaskFamily::Transformer),
        "rnn" => Ok(TaskFamily::Rnn),
        other => Err(err(format!("unknown task family {other:?}"))),
    }
}

fn parse_corpus(tag: &str) -> Result<Corpus, SnapshotError> {
    match tag {
        "cifar10" => Ok(Corpus::Cifar10),
        "imagenet" => Ok(Corpus::ImageNet),
        "europarl" => Ok(Corpus::Europarl),
        other => Err(err(format!("unknown corpus {other:?}"))),
    }
}

fn push_task(out: &mut String, id: u64, spec: &TaskSpec) {
    out.push_str(&format!(
        "task {id} {} {} {} {} {}\n",
        family_tag(spec.family),
        corpus_tag(spec.corpus),
        spec.depth,
        spec.width,
        spec.batch_size
    ));
}

fn parse_task(line: &str) -> Result<(u64, TaskSpec), SnapshotError> {
    let t: Vec<&str> = line.split_whitespace().collect();
    if t.len() != 7 || t[0] != "task" {
        return Err(err(format!("bad task line {line:?}")));
    }
    let parse_usize = |s: &str| -> Result<usize, SnapshotError> {
        s.parse().map_err(|_| err(format!("bad integer {s:?}")))
    };
    Ok((
        t[1].parse().map_err(|_| err("bad task id"))?,
        TaskSpec {
            family: parse_family(t[2])?,
            corpus: parse_corpus(t[3])?,
            depth: parse_usize(t[4])?,
            width: parse_usize(t[5])?,
            batch_size: parse_usize(t[6])?,
        },
    ))
}

fn push_matrix(out: &mut String, tag: &str, x: &Matrix) {
    for r in 0..x.rows() {
        let row: Vec<String> = x.row(r).iter().map(|v| format!("{v:e}")).collect();
        out.push_str(tag);
        out.push(' ');
        out.push_str(&row.join(" "));
        out.push('\n');
    }
}

fn push_floats(out: &mut String, tag: &str, values: &[f64]) {
    let values: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
    out.push_str(&format!("{tag} {}\n", values.join(" ")));
}

/// Parses the next line as `tag <floats>`.
fn next_floats<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
) -> Result<Vec<f64>, SnapshotError> {
    let line = lines.next().ok_or_else(|| err(format!("missing {tag}")))?;
    parse_floats(
        line.strip_prefix(tag)
            .ok_or_else(|| err(format!("expected `{tag} ...`")))?,
    )
}

/// Parses the next `prices` line, or none (empty prices) in a document
/// of the format before prices were kept.
fn next_prices<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    has_prices: bool,
) -> Result<Vec<f64>, SnapshotError> {
    if has_prices {
        next_floats(lines, "prices")
    } else {
        Ok(Vec::new())
    }
}

fn parse_floats(body: &str) -> Result<Vec<f64>, SnapshotError> {
    body.split_whitespace()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| err(format!("bad float {t:?}")))
        })
        .collect()
}

/// Hard caps applied when parsing untrusted snapshot sizes (a corrupted
/// count must produce a typed error, not a huge allocation).
const MAX_TASKS: usize = 1 << 20;
const MAX_DIM: usize = 1 << 16;

fn parse_count(s: &str, cap: usize, what: &str) -> Result<usize, SnapshotError> {
    let v: usize = s.parse().map_err(|_| err(format!("bad {what} count")))?;
    if v > cap {
        return Err(err(format!("{what} count {v} exceeds the limit of {cap}")));
    }
    Ok(v)
}

fn next_field<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<Vec<String>, SnapshotError> {
    let line = lines.next().ok_or_else(|| err(format!("missing {name}")))?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(name) {
        return Err(err(format!("expected `{name} ...`, got {line:?}")));
    }
    Ok(parts.map(str::to_owned).collect())
}

fn parse_matrix<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    m: usize,
    n: usize,
) -> Result<Matrix, SnapshotError> {
    let mut x = Matrix::zeros(m, n);
    for r in 0..m {
        let line = lines
            .next()
            .ok_or_else(|| err(format!("missing {tag} row {r}")))?;
        let body = line
            .strip_prefix(tag)
            .ok_or_else(|| err(format!("expected `{tag} <floats>`, got {line:?}")))?;
        let values = parse_floats(body)?;
        if values.len() != n {
            return Err(err(format!(
                "{tag} row {r}: expected {n} values, got {}",
                values.len()
            )));
        }
        x.row_mut(r).copy_from_slice(&values);
    }
    Ok(x)
}

/// Serializes the state to the snapshot document. `predictor_count`
/// records how many learned predictors were checkpointed alongside (0
/// for ground-truth serving).
pub fn to_document(state: &ExchangeState, predictor_count: usize) -> String {
    let mut out = String::new();
    out.push_str(SNAPSHOT_HEADER);
    out.push('\n');
    out.push_str(&format!("cursor {}\n", state.cursor));
    let c = &state.counters;
    out.push_str(&format!(
        "counters {} {} {} {} {} {}\n",
        c.admitted, c.shed, c.deadline_miss, c.resolves, c.degraded, c.max_pending_seen
    ));
    let down: Vec<String> = state.down.iter().map(|i| i.to_string()).collect();
    out.push_str(&format!("down {} {}\n", down.len(), down.join(" ")));
    out.push_str(&format!("active {}\n", state.active.len()));
    for (id, spec) in &state.active {
        push_task(&mut out, *id, spec);
    }
    out.push_str(&format!("pending {}\n", state.pending.len()));
    for (id, spec) in &state.pending {
        push_task(&mut out, *id, spec);
    }
    match &state.last {
        None => out.push_str("last none\n"),
        Some(last) => {
            let (m, n) = last.x.shape();
            out.push_str(&format!("last {m} {n} {:e}\n", last.objective));
            let ids: Vec<String> = last.ids.iter().map(|i| i.to_string()).collect();
            out.push_str(&format!("ids {}\n", ids.join(" ")));
            push_matrix(&mut out, "xrow", &last.x);
            push_floats(&mut out, "prices", &last.prices);
        }
    }
    out.push_str(&format!("predictors {predictor_count}\n"));
    out.push_str("end\n");
    out
}

/// Parses a snapshot document back into state and the predictor
/// count. A v1/v2 document's warm-start cache section is read and
/// skipped; a malformed or truncated one is still an error.
pub fn from_document(text: &str) -> Result<(ExchangeState, usize), SnapshotError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| err("empty document"))?;
    // (whether solutions carry prices, whether a cache section follows)
    let (has_prices, has_cache) = match header.trim() {
        SNAPSHOT_HEADER => (true, false),
        SNAPSHOT_HEADER_V2 => (true, true),
        SNAPSHOT_HEADER_V1 => (false, true),
        _ => return Err(err(format!("bad header {header:?}"))),
    };

    let cursor_parts = next_field(&mut lines, "cursor")?;
    let cursor: u64 = cursor_parts
        .first()
        .ok_or_else(|| err("missing cursor value"))?
        .parse()
        .map_err(|_| err("bad cursor"))?;

    let c = next_field(&mut lines, "counters")?;
    if c.len() != 6 {
        return Err(err("counters line must carry 6 values"));
    }
    let parse_u64 = |s: &String| -> Result<u64, SnapshotError> {
        s.parse().map_err(|_| err(format!("bad counter {s:?}")))
    };
    let counters = ServeCounters {
        admitted: parse_u64(&c[0])?,
        shed: parse_u64(&c[1])?,
        deadline_miss: parse_u64(&c[2])?,
        resolves: parse_u64(&c[3])?,
        degraded: parse_u64(&c[4])?,
        max_pending_seen: parse_u64(&c[5])?,
    };

    let d = next_field(&mut lines, "down")?;
    let down_count = parse_count(
        d.first().ok_or_else(|| err("missing down count"))?,
        MAX_DIM,
        "down",
    )?;
    if d.len() != down_count + 1 {
        return Err(err("down line length mismatch"));
    }
    let down: BTreeSet<usize> = d[1..]
        .iter()
        .map(|s| {
            s.parse()
                .map_err(|_| err(format!("bad cluster index {s:?}")))
        })
        .collect::<Result<_, _>>()?;

    let a = next_field(&mut lines, "active")?;
    let active_count = parse_count(
        a.first().ok_or_else(|| err("missing active count"))?,
        MAX_TASKS,
        "active",
    )?;
    let mut active = BTreeMap::new();
    for _ in 0..active_count {
        let line = lines.next().ok_or_else(|| err("missing active task"))?;
        let (id, spec) = parse_task(line)?;
        active.insert(id, spec);
    }

    let p = next_field(&mut lines, "pending")?;
    let pending_count = parse_count(
        p.first().ok_or_else(|| err("missing pending count"))?,
        MAX_TASKS,
        "pending",
    )?;
    let mut pending = VecDeque::new();
    for _ in 0..pending_count {
        let line = lines.next().ok_or_else(|| err("missing pending task"))?;
        pending.push_back(parse_task(line)?);
    }

    let l = next_field(&mut lines, "last")?;
    let last = match l.first().map(String::as_str) {
        Some("none") => None,
        Some(m_str) => {
            if l.len() != 3 {
                return Err(err("last line must be `last <m> <n> <objective>`"));
            }
            let m = parse_count(m_str, MAX_DIM, "last rows")?;
            let n = parse_count(&l[1], MAX_TASKS, "last cols")?;
            let objective: f64 = l[2].parse().map_err(|_| err("bad objective"))?;
            let ids_line = lines.next().ok_or_else(|| err("missing ids"))?;
            let ids_body = ids_line
                .strip_prefix("ids")
                .ok_or_else(|| err("expected `ids ...`"))?;
            let ids: Vec<u64> = ids_body
                .split_whitespace()
                .map(|s| s.parse().map_err(|_| err(format!("bad id {s:?}"))))
                .collect::<Result<_, _>>()?;
            if ids.len() != n {
                return Err(err("ids length does not match assignment columns"));
            }
            let x = parse_matrix(&mut lines, "xrow", m, n)?;
            let prices = next_prices(&mut lines, has_prices)?;
            // The next resolve starts from these: reject what could not
            // start one, rather than leave the check to the solve.
            if !prices.is_empty() && (prices.len() != m + 1 || !prices_admissible(&prices)) {
                return Err(SnapshotError::Prices {
                    clusters: m,
                    len: prices.len(),
                });
            }
            Some(LastSolution {
                ids,
                x,
                objective,
                prices,
            })
        }
        None => return Err(err("missing last value")),
    };

    if has_cache {
        skip_cache_section(&mut lines, has_prices)?;
    }

    let pred = next_field(&mut lines, "predictors")?;
    let predictor_count = parse_count(
        pred.first().ok_or_else(|| err("missing predictor count"))?,
        MAX_DIM,
        "predictor",
    )?;
    if lines.next().map(str::trim) != Some("end") {
        return Err(err("missing end marker (truncated document)"));
    }

    Ok((
        ExchangeState {
            cursor,
            active,
            pending,
            down,
            last,
            counters,
        },
        predictor_count,
    ))
}

/// Reads past a v1/v2 warm-start cache section, checking its layout:
/// `cache <generation> <entries>`, then per entry an `entry` line of six
/// values, its `xrow` lines, its `duals` line and (v2) its `prices`
/// line. Nothing in it is kept.
fn skip_cache_section<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    has_prices: bool,
) -> Result<(), SnapshotError> {
    let cache_line = next_field(lines, "cache")?;
    if cache_line.len() != 2 {
        return Err(err("cache line must be `cache <generation> <entries>`"));
    }
    cache_line[0]
        .parse::<u64>()
        .map_err(|_| err("bad generation"))?;
    let entry_count = parse_count(&cache_line[1], MAX_TASKS, "cache entry")?;
    for _ in 0..entry_count {
        let e = next_field(lines, "entry")?;
        if e.len() != 6 {
            return Err(err("entry line must carry 6 values"));
        }
        let m = parse_count(&e[2], MAX_DIM, "entry rows")?;
        let n = parse_count(&e[3], MAX_TASKS, "entry cols")?;
        parse_matrix(lines, "xrow", m, n)?;
        next_floats(lines, "duals")?;
        next_prices(lines, has_prices)?;
    }
    Ok(())
}

/// Atomically writes the snapshot document into `dir` (creating it).
pub fn write_snapshot(
    dir: &Path,
    state: &ExchangeState,
    predictor_count: usize,
) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let doc = to_document(state, predictor_count);
    mfcp_nn::persist::atomic_write(dir.join(SNAPSHOT_FILE), &doc).map_err(|e| match e {
        mfcp_nn::persist::PersistError::Io(io) => SnapshotError::Io(io),
        other => err(other.to_string()),
    })
}

/// Reads the snapshot document from `dir`.
pub fn read_snapshot(dir: &Path) -> Result<(ExchangeState, usize), SnapshotError> {
    let text = std::fs::read_to_string(dir.join(SNAPSHOT_FILE))?;
    from_document(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ExchangeState {
        let spec = TaskSpec {
            family: TaskFamily::Transformer,
            corpus: Corpus::Europarl,
            depth: 12,
            width: 256,
            batch_size: 32,
        };
        let mut active = BTreeMap::new();
        active.insert(3, spec.clone());
        active.insert(
            7,
            TaskSpec {
                family: TaskFamily::Cnn,
                corpus: Corpus::Cifar10,
                depth: 8,
                width: 64,
                batch_size: 128,
            },
        );
        let mut pending = VecDeque::new();
        pending.push_back((9, spec));
        let x = Matrix::from_rows(&[&[0.25, 0.5], &[0.75, 0.5]]);
        ExchangeState {
            cursor: 41,
            active,
            pending,
            down: [1usize].into_iter().collect(),
            last: Some(LastSolution {
                ids: vec![3, 7],
                x,
                objective: 1.5e-3,
                prices: vec![0.0, 0.75, -2.5e-3],
            }),
            counters: ServeCounters {
                admitted: 10,
                shed: 2,
                deadline_miss: 1,
                resolves: 5,
                degraded: 1,
                max_pending_seen: 4,
            },
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let state = sample_state();
        let doc = to_document(&state, 3);
        let (back, preds) = from_document(&doc).unwrap();
        assert_eq!(back, state);
        assert_eq!(preds, 3);
        // Serialization is itself deterministic.
        assert_eq!(doc, to_document(&back, preds));
    }

    /// `doc` (v3) rewritten in an older format: `header`, and a cache
    /// section of one entry (with a `prices` line when `prices`) before
    /// the predictor count.
    fn legacy(doc: &str, header: &str, prices: bool) -> String {
        let mut section = "cache 6 1\nentry 99 4 2 2 -2.5e0 1\n\
                           xrow 1e-1 9e-1\nxrow 9e-1 1e-1\nduals 5e-1 -5e-1\n"
            .to_string();
        if prices {
            section.push_str("prices 2.5e-1 7.5e-1 -1e-2\n");
        }
        doc.replacen(SNAPSHOT_HEADER, header, 1).replacen(
            "predictors ",
            &format!("{section}predictors "),
            1,
        )
    }

    #[test]
    fn reads_v1_documents_without_prices() {
        let mut state = sample_state();
        let v3 = to_document(&state, 0);
        // A v2 document restores the same state, its cache skipped.
        let v2 = legacy(&v3, SNAPSHOT_HEADER_V2, true);
        assert_eq!(from_document(&v2).unwrap().0, state);
        // A v1 document has no prices anywhere.
        let v1 = legacy(&v3, SNAPSHOT_HEADER_V1, false);
        let v1: Vec<&str> = v1.lines().filter(|l| !l.starts_with("prices")).collect();
        let (back, _) = from_document(&v1.join("\n")).unwrap();
        state.last.as_mut().unwrap().prices.clear();
        assert_eq!(back, state);
    }

    #[test]
    fn rejects_unusable_last_prices() {
        let state = sample_state();
        let doc = to_document(&state, 0);
        let line = "prices 0e0 7.5e-1 -2.5e-3";
        assert!(doc.contains(line));
        for bad in [
            "prices 0e0 NaN -2.5e-3",
            "prices 0e0 inf -2.5e-3",
            "prices 0e0 7.5e-1",
            "prices 0e0 7.5e-1 -2.5e-3 1e0 1e0",
            "prices 0e0 7.5e6 -2.5e-3",
        ] {
            let result = from_document(&doc.replacen(line, bad, 1));
            assert!(
                matches!(result, Err(SnapshotError::Prices { clusters: 2, .. })),
                "{bad}: {result:?}"
            );
        }
        // No prices at all is a solution without them.
        let (back, _) = from_document(&doc.replacen(line, "prices", 1)).unwrap();
        assert!(back.last.unwrap().prices.is_empty());
    }

    #[test]
    fn rejects_corruption() {
        let state = sample_state();
        let doc = to_document(&state, 0);
        assert!(from_document("").is_err());
        assert!(from_document("mfcp-serve-snapshot v9\n").is_err());
        // Truncation anywhere must fail loudly, not load partial state,
        // in the cache section of an old document too.
        for doc in [doc.clone(), legacy(&doc, SNAPSHOT_HEADER_V2, true)] {
            let lines: Vec<&str> = doc.lines().collect();
            for cut in 1..lines.len() {
                let partial = lines[..cut].join("\n");
                assert!(
                    matches!(from_document(&partial), Err(SnapshotError::Format(_))),
                    "truncation at line {cut} must be rejected"
                );
            }
        }
        // A corrupted float must be a typed error.
        let corrupted = doc.replacen("e-", "x-", 1);
        assert!(from_document(&corrupted).is_err());
        // A hostile count must not allocate.
        let hostile = doc.replace("active 2", &format!("active {}", u64::MAX));
        assert!(from_document(&hostile).is_err());
    }
}
