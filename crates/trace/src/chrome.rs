//! Chrome Trace Event Format rendering.
//!
//! The exported JSON uses the object form (`{"traceEvents": [...]}`),
//! with one *simulated cycle* mapped to one viewer microsecond — cycle
//! 12_345 shows as 12.345 ms on the Perfetto timeline. All events
//! share `pid` 0; each [`Track`](crate::Track) becomes one `tid` with a
//! `thread_name` metadata record, so the viewer shows one named row per
//! track in registration order.
//!
//! Sync-track spans render as complete (`"X"`) events with
//! a non-negative `dur`; async-track spans render as `"b"`/`"e"`
//! pairs keyed by the recorder-assigned id, so overlapping in-flight
//! lifetimes display stacked instead of corrupting a thread row.
//! The document is built as a [`Value`] and rendered by
//! [`json::write`], which puts each event on a line of its own;
//! `check_figures --trace` reads it back with [`json::parse`].

use crate::json::{self, Value};
use crate::{Args, TraceEvent, Tracer, TrackKind};
use hipe_sim::Cycle;

fn args_value(args: &Args) -> Value {
    Value::object(args.iter().map(|(k, v)| (*k, v.clone())))
}

/// A `pid` 0 metadata record for `tid` (the process record has none).
fn metadata(tid: Option<usize>, name: &str, args: Value) -> Value {
    let mut members = vec![("ph", "M".into()), ("pid", 0u64.into())];
    members.extend(tid.map(|tid| ("tid", tid.into())));
    members.extend([("name", name.into()), ("args", args)]);
    Value::object(members)
}

/// A timed event: `ph`, `pid`, `tid`, `ts`, the phase's own field (if
/// any), `cat`, `name`, then `args` (if any).
fn timed(
    ph: &str,
    tid: usize,
    ts: Cycle,
    own: Option<(&'static str, Value)>,
    name: &str,
    args: Option<Value>,
) -> Value {
    let mut members = vec![
        ("ph", ph.into()),
        ("pid", 0u64.into()),
        ("tid", tid.into()),
        ("ts", ts.into()),
    ];
    members.extend(own);
    members.extend([("cat", "hipe".into()), ("name", name.into())]);
    members.extend(args.map(|a| ("args", a)));
    Value::object(members)
}

impl Tracer {
    /// Renders the recording as Chrome Trace Event Format JSON.
    ///
    /// `other_data` becomes the file's `otherData` object. The serve
    /// layer uses it to embed the `ServiceReport` counters the trace
    /// must reconcile with.
    pub fn to_chrome_json(&self, other_data: Value) -> String {
        let mut events = vec![metadata(
            None,
            "process_name",
            Value::object([("name", "hipe (simulated cycles)".into())]),
        )];
        for (tid, track) in self.tracks().iter().enumerate() {
            let name = Value::object([("name", track.name.as_str().into())]);
            events.push(metadata(Some(tid), "thread_name", name));
            let sort = Value::object([("sort_index", tid.into())]);
            events.push(metadata(Some(tid), "thread_sort_index", sort));
        }
        for event in self.events() {
            match event {
                TraceEvent::Span { span, async_id } => {
                    let tid = span.track.index();
                    let (name, begin, end) = (&span.name, span.begin_cycle, span.end_cycle);
                    match self.tracks()[tid].kind {
                        TrackKind::Sync => {
                            debug_assert!(async_id.is_none());
                            let dur = Some(("dur", (end - begin).into()));
                            let args = Some(args_value(&span.args));
                            events.push(timed("X", tid, begin, dur, name, args));
                        }
                        TrackKind::Async => {
                            let id = Value::from(async_id.expect("async spans carry an id"));
                            let (b_id, args) =
                                (Some(("id", id.clone())), Some(args_value(&span.args)));
                            events.push(timed("b", tid, begin, b_id, name, args));
                            events.push(timed("e", tid, end, Some(("id", id)), name, None));
                        }
                    }
                }
                TraceEvent::Instant {
                    track,
                    name,
                    at_cycle,
                    args,
                } => {
                    let (scope, args) = (Some(("s", "t".into())), Some(args_value(args)));
                    events.push(timed("i", track.index(), *at_cycle, scope, name, args));
                }
                TraceEvent::Counter {
                    track,
                    name,
                    at_cycle,
                    value,
                } => {
                    let sample = Some(Value::object([("value", (*value).into())]));
                    events.push(timed("C", track.index(), *at_cycle, None, name, sample));
                }
            }
        }
        json::write(&Value::object([
            ("displayTimeUnit", "ms".into()),
            ("otherData", other_data),
            ("traceEvents", Value::Array(events)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Value};
    use crate::{Tracer, TrackKind};

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let fe = t.track("front-end", TrackKind::Sync);
        let q = t.track("queries", TrackKind::Async);
        t.span_on(fe, "batch 0", 10, 30, vec![("queries", 4usize.into())]);
        t.span_on(q, "q0", 5, 90, vec![("tag", 1usize.into())]);
        t.instant(fe, "redispatch", 40, vec![("shard", 0usize.into())]);
        t.counter(fe, "batch_fill", 5, 2);
        t
    }

    fn no_other_data() -> Value {
        Value::object::<&str>([])
    }

    #[test]
    fn renders_object_form_with_metadata_rows() {
        let json = sample().to_chrome_json(Value::object([("queries", 1u64.into())]));
        let doc = json::parse(&json).expect("the writer emits valid JSON");
        assert_eq!(doc.get("displayTimeUnit"), Some(&"ms".into()));
        let other = doc.get("otherData").expect("otherData");
        assert_eq!(other.get("queries").and_then(Value::as_number), Some(1u64));
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["front-end", "queries"]);
        assert!(json.contains("thread_sort_index"));
    }

    #[test]
    fn sync_spans_are_complete_events_and_async_spans_are_pairs() {
        let json = sample().to_chrome_json(no_other_data());
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 20"));
        let begins = json.matches("\"ph\": \"b\"").count();
        let ends = json.matches("\"ph\": \"e\"").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"C\""));
    }

    #[test]
    fn one_event_per_line() {
        let json = sample().to_chrome_json(no_other_data());
        let event_lines = json
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"ph\""))
            .count();
        // 1 process_name + 2 tracks x 2 metadata + 1 X + b/e pair +
        // 1 instant + 1 counter.
        assert_eq!(event_lines, 10);
    }

    #[test]
    fn escapes_quotes_and_control_characters() {
        let mut t = Tracer::new();
        let s = t.track("a\"b\\c\n", TrackKind::Sync);
        t.span_on(s, "x\ty", 0, 1, vec![("label", "p\"q".into())]);
        let json = t.to_chrome_json(no_other_data());
        assert!(json.contains("a\\\"b\\\\c\\n"));
        assert!(json.contains("x\\ty"));
        assert!(json.contains("p\\\"q"));
        assert!(json::parse(&json).is_ok());
    }
}
