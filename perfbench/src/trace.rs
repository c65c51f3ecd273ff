//! In-memory span recorder for the traced run.
//!
//! A span is one timed call at a layer boundary: its name and layer, start
//! and end (nanoseconds since the trace began), the thread it ran on, the
//! span that caused it, and the id of the request group it belongs to
//! (one epoch, one query, one recovery, ...). Spans are appended to one
//! process-wide buffer and written out as JSON when the benchmark ends.
//!
//! Parents come from a per-thread stack of open spans. A span opened on a
//! thread with no open span (a collector actor) is attributed instead: an
//! `absorb_wire` call maps to its epoch through the first user index of
//! its chunk, anything else to the session step that was running when it
//! began.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer a span is charged to (crate-level names, see METRICS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client,
    Ingest,
    Merge,
    Snapshot,
    Finish,
    Estimate,
    Sim,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Ingest => "ingest",
            Layer::Merge => "merge",
            Layer::Snapshot => "snapshot",
            Layer::Finish => "finish",
            Layer::Estimate => "estimate",
            Layer::Sim => "sim",
        }
    }
}

/// A request group: the epoch, query or other session step a span serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    pub kind: &'static str,
    pub index: u64,
}

const NO_GROUP: Group = Group {
    kind: "none",
    index: 0,
};

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// The causing span (`0` = none).
    pub parent: u64,
    pub group: Group,
    pub name: &'static str,
    pub layer: Layer,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items handled (users, frames, outputs, ...).
    pub items: u64,
    /// Bytes produced.
    pub bytes: u64,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// First user index of every epoch, and the span id of its ingest
    /// step once that step has opened.
    epochs: Mutex<Vec<(u64, u64)>>,
    /// The session step running right now: its group and span id.
    current: Mutex<(Group, u64)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = Cell::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
    static STACK: RefCell<Vec<(u64, Group)>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
        epochs: Mutex::new(Vec::new()),
        current: Mutex::new((NO_GROUP, 0)),
    })
}

/// Nanoseconds since the trace origin.
pub fn now_ns() -> u64 {
    recorder().origin.elapsed().as_nanos() as u64
}

/// Start recording one iteration: clear the buffer and register the
/// epochs' first user indices.
pub fn start(epoch_starts: &[u64]) {
    let rec = recorder();
    rec.spans.lock().expect("trace buffer poisoned").clear();
    *rec.epochs.lock().expect("trace epochs poisoned") =
        epoch_starts.iter().map(|&s| (s, 0)).collect();
    *rec.current.lock().expect("trace step poisoned") = (NO_GROUP, 0);
    // Spans left open by a panicked iteration must not parent new ones.
    STACK.with(|s| s.borrow_mut().clear());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back the iteration's spans.
pub fn stop() -> Vec<SpanRec> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *recorder().spans.lock().expect("trace buffer poisoned"))
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; record it with [`Span::end`].
pub struct Span {
    id: u64,
    parent: u64,
    group: Group,
    name: &'static str,
    layer: Layer,
    start_ns: u64,
}

fn open(name: &'static str, layer: Layer, parent: u64, group: Group) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, group)));
    Span {
        id,
        parent,
        group,
        name,
        layer,
        start_ns: now_ns(),
    }
}

/// Open a span for a call into the protocol layer. `first_user` is the
/// chunk's first user index for calls that carry one.
pub fn begin(name: &'static str, layer: Layer, first_user: Option<u64>) -> Span {
    let enclosing = STACK.with(|s| s.borrow().last().copied());
    let (parent, group) = match enclosing {
        Some(top) => top,
        None => {
            let rec = recorder();
            let by_epoch = first_user.and_then(|u| {
                let epochs = rec.epochs.lock().expect("trace epochs poisoned");
                let e = epochs.partition_point(|&(s, _)| s <= u).checked_sub(1)?;
                Some((
                    epochs[e].1,
                    Group {
                        kind: "epoch",
                        index: e as u64,
                    },
                ))
            });
            by_epoch.unwrap_or_else(|| {
                let (g, id) = *rec.current.lock().expect("trace step poisoned");
                (id, g)
            })
        }
    };
    open(name, layer, parent, group)
}

/// Open the span of one session step (an epoch, a checkpoint, a query...)
/// and make it the step later actor-thread spans are attributed to.
pub fn begin_step(name: &'static str, group: Group) -> Span {
    let span = open(name, Layer::Sim, 0, group);
    let rec = recorder();
    *rec.current.lock().expect("trace step poisoned") = (group, span.id);
    if group.kind == "epoch" {
        if let Some(slot) = rec
            .epochs
            .lock()
            .expect("trace epochs poisoned")
            .get_mut(group.index as usize)
        {
            slot.1 = span.id;
        }
    }
    span
}

impl Span {
    pub fn end(self, items: u64, bytes: u64) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(
                popped.map(|p| p.0),
                Some(self.id),
                "spans closed out of order"
            );
        });
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            layer: self.layer,
            thread: THREAD.with(Cell::get),
            start_ns: self.start_ns,
            end_ns,
            items,
            bytes,
        };
        recorder()
            .spans
            .lock()
            .expect("trace buffer poisoned")
            .push(rec);
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children on the same thread.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(SpanRec::dur_s).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                own[p] -= s.dur_s();
            }
        }
    }
    own
}

/// The spans as a JSON array.
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {}, \"group\": \"{}:{}\", \"name\": \"{}\", \"layer\": \"{}\", \
             \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"items\": {}, \"bytes\": {}}}{}\n",
            s.id,
            s.parent,
            s.group.kind,
            s.group.index,
            s.name,
            s.layer.name(),
            s.thread,
            s.start_ns,
            s.end_ns,
            s.items,
            s.bytes,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
