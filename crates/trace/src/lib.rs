//! Cycle-domain tracing and the JSON layer for the HIPE stack.
//!
//! Every model in this workspace advances *simulated* time — modeled
//! cycles, not host wall-clock — so observability has to live in the
//! same domain. This crate provides the primitives the rest of the
//! stack threads through:
//!
//! * a structured trace recorder ([`Tracer`]: tracks, [`Span`]s,
//!   instants, counters) whose timestamps are [`Cycle`]s and which
//!   exports Chrome Trace Event Format JSON (loads directly in
//!   Perfetto / `chrome://tracing`, one simulated cycle per viewer
//!   microsecond);
//! * the workspace's one JSON reader and writer ([`json`]), which every
//!   committed artifact is written and checked through, and in which a
//!   run's metrics are expressed: `hipe::RunReport::metrics` projects
//!   the component counters (core, cube, cache, engine) into one
//!   name-ordered [`Value`] object, the only place a metric name is
//!   spelled.
//!
//! The tracing seam is an `Option<&mut Tracer>`: callers that
//! pass `None` take one branch and otherwise run the exact code path
//! they always did. Emission happens strictly *after* the cycle
//! accounting it describes (reports and replayed schedules are read,
//! never perturbed), which is what makes trace-on runs provably
//! cycle-identical to trace-off runs.

mod chrome;
pub mod json;

pub use json::Value;

use hipe_sim::Cycle;

/// Identifies one track (viewer row) of a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub(crate) u32);

impl TrackId {
    /// The track's position in registration order (== viewer `tid`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How events on a track relate to each other in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// At most one span open at a time (a server, an engine): spans
    /// must nest or be disjoint, and export as complete (`"X"`)
    /// events.
    Sync,
    /// Overlapping spans are expected (in-flight query lifetimes):
    /// spans export as async begin/end (`"b"`/`"e"`) pairs with
    /// per-span ids.
    Async,
}

/// One registered track: a named row in the exported trace.
#[derive(Debug, Clone)]
pub struct Track {
    /// Display name (e.g. `"s0.r1 engine"`).
    pub name: String,
    /// Sync (nested spans) or async (overlapping spans).
    pub kind: TrackKind,
}

/// Event argument list: small, ordered, rendered verbatim into the
/// exported JSON `args` object. Values are JSON scalars, built with
/// `.into()` from integers and strings.
pub type Args = Vec<(&'static str, Value)>;

/// A closed interval of simulated time on one track.
#[derive(Debug, Clone)]
pub struct Span {
    /// Track the span lives on.
    pub track: TrackId,
    /// Display name.
    pub name: String,
    /// First cycle of the interval.
    pub begin_cycle: Cycle,
    /// One past the work: `end_cycle >= begin_cycle`.
    pub end_cycle: Cycle,
    /// Attached arguments.
    pub args: Args,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A closed interval. `async_id` is assigned by the recorder for
    /// spans on [`TrackKind::Async`] tracks (stable, unique per span)
    /// and `None` on sync tracks.
    Span {
        /// The interval.
        span: Span,
        /// Begin/end pairing id on async tracks.
        async_id: Option<u64>,
    },
    /// A zero-duration marker.
    Instant {
        /// Track the marker lives on.
        track: TrackId,
        /// Display name.
        name: String,
        /// When it happened.
        at_cycle: Cycle,
        /// Attached arguments.
        args: Args,
    },
    /// A sampled counter value (plots as a filled series).
    Counter {
        /// Track the sample lives on.
        track: TrackId,
        /// Series name.
        name: String,
        /// Sample time.
        at_cycle: Cycle,
        /// Sample value.
        value: u64,
    },
}

/// The in-memory recorder: collects tracks and events, exports
/// Chrome Trace Event Format JSON (see [`Tracer::to_chrome_json`]).
#[derive(Debug, Default)]
pub struct Tracer {
    tracks: Vec<Track>,
    events: Vec<TraceEvent>,
    next_async_id: u64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Registered tracks, in registration (== `tid`) order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events (metadata excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All recorded spans, in emission order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Span { span, .. } => Some(span),
            _ => None,
        })
    }

    /// Recorded instants with the given name.
    pub fn instants_named(&self, wanted: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Instant { name, .. } if name == wanted))
            .count()
    }

    fn check_track(&self, track: TrackId) {
        assert!(
            (track.0 as usize) < self.tracks.len(),
            "track {} was never registered ({} tracks)",
            track.0,
            self.tracks.len()
        );
    }

    /// Registers a track and returns its id. Called once per row
    /// before any event targets it.
    pub fn track(&mut self, name: &str, kind: TrackKind) -> TrackId {
        let id = TrackId(u32::try_from(self.tracks.len()).expect("more than u32::MAX tracks"));
        self.tracks.push(Track {
            name: name.to_string(),
            kind,
        });
        id
    }

    /// Records one span.
    pub fn span(&mut self, span: Span) {
        self.check_track(span.track);
        assert!(
            span.end_cycle >= span.begin_cycle,
            "span `{}` ends ({}) before it begins ({})",
            span.name,
            span.end_cycle,
            span.begin_cycle
        );
        let async_id = match self.tracks[span.track.0 as usize].kind {
            TrackKind::Sync => None,
            TrackKind::Async => {
                let id = self.next_async_id;
                self.next_async_id += 1;
                Some(id)
            }
        };
        self.events.push(TraceEvent::Span { span, async_id });
    }

    /// Records one instant marker.
    pub fn instant(&mut self, track: TrackId, name: &str, at_cycle: Cycle, args: Args) {
        self.check_track(track);
        self.events.push(TraceEvent::Instant {
            track,
            name: name.to_string(),
            at_cycle,
            args,
        });
    }

    /// Records one counter sample.
    pub fn counter(&mut self, track: TrackId, name: &str, at_cycle: Cycle, value: u64) {
        self.check_track(track);
        self.events.push(TraceEvent::Counter {
            track,
            name: name.to_string(),
            at_cycle,
            value,
        });
    }

    /// Convenience: records a span from its parts.
    pub fn span_on(&mut self, track: TrackId, name: &str, begin: Cycle, end: Cycle, args: Args) {
        self.span(Span {
            track,
            name: name.to_string(),
            begin_cycle: begin,
            end_cycle: end,
            args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_tracks_and_events_in_order() {
        let mut t = Tracer::new();
        let a = t.track("admission", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        assert_eq!(a.index(), 0);
        assert_eq!(q.index(), 1);
        assert!(t.is_empty());
        t.instant(a, "arrival", 5, vec![("tag", 7usize.into())]);
        t.span_on(q, "q0", 5, 90, Vec::new());
        t.counter(a, "batch_fill", 5, 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans().count(), 1);
        assert_eq!(t.instants_named("arrival"), 1);
        assert_eq!(t.instants_named("departure"), 0);
    }

    #[test]
    fn async_spans_get_unique_ids_and_sync_spans_none() {
        let mut t = Tracer::new();
        let s = t.track("engine", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        t.span_on(q, "q0", 0, 10, Vec::new());
        t.span_on(s, "scan", 0, 10, Vec::new());
        t.span_on(q, "q1", 2, 8, Vec::new());
        let ids: Vec<Option<u64>> = t
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Span { async_id, .. } => *async_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![Some(0), None, Some(1)]);
    }

    #[test]
    #[should_panic(expected = "ends")]
    fn negative_duration_span_panics() {
        let mut t = Tracer::new();
        let s = t.track("engine", TrackKind::Sync);
        t.span_on(s, "scan", 10, 9, Vec::new());
    }

    #[test]
    #[should_panic(expected = "never registered")]
    fn unregistered_track_panics() {
        let mut t = Tracer::new();
        t.instant(TrackId(3), "x", 0, Vec::new());
    }

    #[test]
    fn zero_length_span_is_allowed() {
        let mut t = Tracer::new();
        let s = t.track("engine", TrackKind::Sync);
        t.span_on(s, "dispatch", 4, 4, Vec::new());
        assert_eq!(t.spans().count(), 1);
    }
}
