//! Crash-consistent serialization of the exchange state.
//!
//! The daemon's entire mutable state — trace cursor, active and pending
//! task sets, cluster outage mask, last assignment, warm-start cache,
//! and SLO counters — round-trips through a line-oriented text document
//! with a versioned header (`mfcp-serve-snapshot v2`; v2 added the
//! solves' prices, and a v1 document still restores, with none), in
//! the same
//! dependency-free style as the `mfcp-nn` checkpoint format. Floats are
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
use mfcp_optim::{WarmStartCache, WarmStartEntry};
use mfcp_platform::task::{Corpus, TaskFamily, TaskSpec};

/// Versioned first line of every snapshot document.
pub const SNAPSHOT_HEADER: &str = "mfcp-serve-snapshot v2";

/// Header of the previous format, which [`from_document`] still reads:
/// it has no `prices` lines, so its solutions restore with none.
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
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Format(m) => write!(f, "snapshot format error: {m}"),
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

/// Serializes the state plus the warm-start cache to the snapshot
/// document. `predictor_count` records how many learned predictors were
/// checkpointed alongside (0 for ground-truth serving).
pub fn to_document(
    state: &ExchangeState,
    cache: &WarmStartCache,
    predictor_count: usize,
) -> String {
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
    let entries = cache.entries_sorted();
    out.push_str(&format!("cache {} {}\n", cache.generation(), entries.len()));
    for (key, entry) in entries {
        let (m, n) = entry.x.shape();
        // The trailing `0` is the retired per-entry KKT flag, kept so v2
        // keeps one layout; readers ignore it.
        out.push_str(&format!(
            "entry {key} {} {m} {n} {:e} 0\n",
            entry.stored_at, entry.objective
        ));
        push_matrix(&mut out, "xrow", &entry.x);
        push_floats(&mut out, "duals", &entry.duals);
        push_floats(&mut out, "prices", &entry.prices);
    }
    out.push_str(&format!("predictors {predictor_count}\n"));
    out.push_str("end\n");
    out
}

/// Parses a snapshot document back into state, a warm-start cache
/// rebuilt with `cache_template`'s configuration, and the predictor
/// count. Lookups/stat counters of the cache restart from zero — only
/// state that affects solve results (entries, generation) is persisted.
pub fn from_document(
    text: &str,
    cache_template: &WarmStartCache,
) -> Result<(ExchangeState, WarmStartCache, usize), SnapshotError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| err("empty document"))?;
    let has_prices = match header.trim() {
        SNAPSHOT_HEADER => true,
        SNAPSHOT_HEADER_V1 => false,
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
            Some(LastSolution {
                ids,
                x,
                objective,
                prices,
            })
        }
        None => return Err(err("missing last value")),
    };

    let cache_line = next_field(&mut lines, "cache")?;
    if cache_line.len() != 2 {
        return Err(err("cache line must be `cache <generation> <entries>`"));
    }
    let generation: u64 = cache_line[0].parse().map_err(|_| err("bad generation"))?;
    let entry_count = parse_count(&cache_line[1], MAX_TASKS, "cache entry")?;
    let mut cache = WarmStartCache::with_config(cache_template.config());
    cache.set_generation(generation);
    for _ in 0..entry_count {
        let e = next_field(&mut lines, "entry")?;
        if e.len() != 6 {
            return Err(err("entry line must carry 6 values"));
        }
        let key: u64 = e[0].parse().map_err(|_| err("bad entry key"))?;
        let stored_at: u64 = e[1].parse().map_err(|_| err("bad entry stamp"))?;
        let m = parse_count(&e[2], MAX_DIM, "entry rows")?;
        let n = parse_count(&e[3], MAX_TASKS, "entry cols")?;
        let objective: f64 = e[4].parse().map_err(|_| err("bad entry objective"))?;
        // e[5]: the retired KKT flag (`1` on convex entries written
        // before it retired); nothing reads it.
        let x = parse_matrix(&mut lines, "xrow", m, n)?;
        let duals = next_floats(&mut lines, "duals")?;
        if !duals.is_empty() && duals.len() != n {
            return Err(err("duals length does not match entry columns"));
        }
        let prices = next_prices(&mut lines, has_prices)?;
        cache.insert_preserving_age(
            key,
            WarmStartEntry {
                x,
                objective,
                duals,
                prices,
                stored_at,
            },
        );
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
        cache,
        predictor_count,
    ))
}

/// Atomically writes the snapshot document into `dir` (creating it).
pub fn write_snapshot(
    dir: &Path,
    state: &ExchangeState,
    cache: &WarmStartCache,
    predictor_count: usize,
) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let doc = to_document(state, cache, predictor_count);
    mfcp_nn::persist::atomic_write(dir.join(SNAPSHOT_FILE), &doc).map_err(|e| match e {
        mfcp_nn::persist::PersistError::Io(io) => SnapshotError::Io(io),
        other => err(other.to_string()),
    })
}

/// Reads the snapshot document from `dir`.
pub fn read_snapshot(
    dir: &Path,
    cache_template: &WarmStartCache,
) -> Result<(ExchangeState, WarmStartCache, usize), SnapshotError> {
    let text = std::fs::read_to_string(dir.join(SNAPSHOT_FILE))?;
    from_document(&text, cache_template)
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
        let mut cache = WarmStartCache::new();
        cache.set_generation(6);
        cache.insert_preserving_age(
            99,
            WarmStartEntry {
                x: Matrix::from_rows(&[&[0.1, 0.9], &[0.9, 0.1]]),
                objective: -2.5,
                duals: vec![0.5, -0.5],
                prices: vec![0.25, 0.75, -1e-2],
                stored_at: 4,
            },
        );
        let doc = to_document(&state, &cache, 3);
        let (back, back_cache, preds) = from_document(&doc, &WarmStartCache::new()).unwrap();
        assert_eq!(back, state);
        assert_eq!(preds, 3);
        assert_eq!(back_cache.generation(), 6);
        let entries = back_cache.entries_sorted();
        assert_eq!(entries.len(), 1);
        let (key, entry) = &entries[0];
        assert_eq!(*key, 99);
        assert_eq!(entry.stored_at, 4);
        assert_eq!(entry.objective.to_bits(), (-2.5f64).to_bits());
        assert_eq!(entry.prices, vec![0.25, 0.75, -1e-2]);
        // Serialization is itself deterministic.
        assert_eq!(doc, to_document(&back, &back_cache, preds));
    }

    #[test]
    fn reads_v1_documents_without_prices() {
        let mut state = sample_state();
        let mut cache = WarmStartCache::new();
        cache.insert_preserving_age(
            5,
            WarmStartEntry {
                x: Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]),
                objective: 0.5,
                duals: Vec::new(),
                prices: vec![0.5, 0.5, -1e-2],
                stored_at: 0,
            },
        );
        let v2 = to_document(&state, &cache, 0);
        let v1: Vec<&str> = v2
            .lines()
            .filter(|l| !l.starts_with("prices"))
            .map(|l| {
                if l == SNAPSHOT_HEADER {
                    SNAPSHOT_HEADER_V1
                } else {
                    l
                }
            })
            .collect();
        let (back, back_cache, _) = from_document(&v1.join("\n"), &WarmStartCache::new()).unwrap();
        state.last.as_mut().unwrap().prices.clear();
        assert_eq!(back, state);
        let entries = back_cache.entries_sorted();
        assert!(entries[0].1.prices.is_empty());
        assert!(
            entries[0].1.duals.is_empty(),
            "a planted seed keeps no duals"
        );
        // The v2 document restores its prices.
        let (_, back_cache, _) = from_document(&v2, &WarmStartCache::new()).unwrap();
        assert_eq!(
            back_cache.entries_sorted()[0].1.prices,
            vec![0.5, 0.5, -1e-2]
        );
    }

    #[test]
    fn rejects_corruption() {
        let state = sample_state();
        let cache = WarmStartCache::new();
        let doc = to_document(&state, &cache, 0);
        let template = WarmStartCache::new();
        assert!(from_document("", &template).is_err());
        assert!(from_document("mfcp-serve-snapshot v9\n", &template).is_err());
        // Truncation anywhere must fail loudly, not load partial state.
        let lines: Vec<&str> = doc.lines().collect();
        for cut in 1..lines.len() {
            let partial = lines[..cut].join("\n");
            assert!(
                from_document(&partial, &template).is_err(),
                "truncation at line {cut} must be rejected"
            );
        }
        // A corrupted float must be a typed error.
        let corrupted = doc.replacen("e-", "x-", 1);
        assert!(from_document(&corrupted, &template).is_err());
        // A hostile count must not allocate.
        let hostile = doc.replace("active 2", &format!("active {}", u64::MAX));
        assert!(from_document(&hostile, &template).is_err());
    }
}
