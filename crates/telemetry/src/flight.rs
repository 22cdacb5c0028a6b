//! Bounded in-memory flight recorder.
//!
//! A ring buffer of the most recent observability events, kept by the
//! campaign daemon so that a crash (panic, SIGTERM) leaves a
//! post-mortem trail on disk next to the job journal. The ring is strictly bounded: when full, the oldest entry
//! is evicted and counted, never blocking or growing. Entries carry a
//! monotonic sequence number so a reader can tell exactly how much
//! history was shed.

use hardsnap_util::json::{write_escaped, Value};
use hardsnap_util::sync::Mutex;
use std::collections::VecDeque;

/// One recorded entry: a sequenced, timestamped, pre-rendered event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Monotonic sequence number (never reused, gaps = evictions
    /// happened before this entry was captured by a dump).
    pub seq: u64,
    /// Milliseconds since the recorder was created.
    pub ts_ms: u64,
    /// Event kind tag (e.g. `"admitted"`, `"terminal"`, `"panic"`).
    pub kind: String,
    /// Free-form detail — the daemon stores the event's JSON here.
    pub detail: String,
}

struct FlightInner {
    next_seq: u64,
    dropped: u64,
    entries: VecDeque<FlightEntry>,
}

/// Fixed-capacity ring of recent [`FlightEntry`] records.
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(FlightInner {
                next_seq: 0,
                dropped: 0,
                entries: VecDeque::new(),
            }),
        }
    }

    /// Maximum number of entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an entry, evicting the oldest if the ring is full.
    pub fn push(&self, ts_ms: u64, kind: &str, detail: String) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(FlightEntry {
            seq,
            ts_ms,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Serialize the ring as JSON (schema `hardsnap-flight-v1`):
    /// capacity, evicted count, and the retained entries oldest-first.
    pub fn dump_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = format!(
            "{{\n  \"schema\": \"hardsnap-flight-v1\",\n  \"capacity\": {},\n  \
             \"dropped\": {},\n  \"entries\": [\n",
            self.capacity, inner.dropped
        );
        for (i, e) in inner.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mut kind = String::new();
            write_escaped(&e.kind, &mut kind);
            let mut detail = String::new();
            write_escaped(&e.detail, &mut detail);
            out.push_str(&format!(
                "    {{\"seq\": {}, \"ts_ms\": {}, \"kind\": {kind}, \"detail\": {detail}}}",
                e.seq, e.ts_ms
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The dump as a parsed [`Value`] tree (what the `dump-flight`
    /// verb puts on the wire).
    pub fn to_value(&self) -> Value {
        hardsnap_util::json::parse(&self.dump_json()).expect("dump_json is well-formed")
    }
}

/// Validate a parsed flight dump: schema tag, bounded entry list,
/// strictly increasing sequence numbers, required fields. Returns a
/// message naming the offending field on failure.
pub fn validate_flight_dump(v: &Value) -> Result<(), String> {
    match v.get("schema").and_then(Value::as_str) {
        Some("hardsnap-flight-v1") => {}
        Some(other) => return Err(format!("unsupported flight schema {other:?}")),
        None => return Err("missing \"schema\" field".into()),
    }
    let capacity = v
        .get("capacity")
        .and_then(Value::as_u64)
        .ok_or("\"capacity\" must be a non-negative integer")?;
    v.get("dropped")
        .and_then(Value::as_u64)
        .ok_or("\"dropped\" must be a non-negative integer")?;
    let entries = v
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("\"entries\" must be an array")?;
    if entries.len() as u64 > capacity {
        return Err(format!(
            "{} entries exceed declared capacity {capacity}",
            entries.len()
        ));
    }
    let mut prev_seq: Option<u64> = None;
    for (i, e) in entries.iter().enumerate() {
        let seq = e
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("entries[{i}].seq must be a non-negative integer"))?;
        e.get("ts_ms")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("entries[{i}].ts_ms must be a non-negative integer"))?;
        e.get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("entries[{i}].kind must be a string"))?;
        e.get("detail")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("entries[{i}].detail must be a string"))?;
        if let Some(p) = prev_seq {
            if seq <= p {
                return Err(format!("entries[{i}].seq {seq} not increasing (prev {p})"));
            }
        }
        prev_seq = Some(seq);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_stays_bounded_and_counts_evictions() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.push(i, "tick", format!("{{\"n\": {i}}}"));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6);
        let v = fr.to_value();
        validate_flight_dump(&v).unwrap();
        let entries = v.get("entries").unwrap().as_arr().unwrap();
        // Oldest retained entry is seq 6 (0..=5 evicted).
        assert_eq!(entries[0].get("seq").unwrap().as_u64(), Some(6));
        assert_eq!(entries[3].get("seq").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn dump_parses_and_validates() {
        let fr = FlightRecorder::new(16);
        fr.push(0, "started", "{}".into());
        fr.push(5, "admitted", "{\"id\": 1}".into());
        let v = fr.to_value();
        validate_flight_dump(&v).unwrap();
        assert_eq!(v.get("capacity").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("dropped").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn validator_rejects_malformed() {
        let over = hardsnap_util::json::parse(
            "{\"schema\": \"hardsnap-flight-v1\", \"capacity\": 1, \"dropped\": 0, \
             \"entries\": [{\"seq\": 0, \"ts_ms\": 0, \"kind\": \"a\", \"detail\": \"\"}, \
             {\"seq\": 1, \"ts_ms\": 0, \"kind\": \"b\", \"detail\": \"\"}]}",
        )
        .unwrap();
        assert!(validate_flight_dump(&over)
            .unwrap_err()
            .contains("capacity"));
        let bad_seq = hardsnap_util::json::parse(
            "{\"schema\": \"hardsnap-flight-v1\", \"capacity\": 8, \"dropped\": 0, \
             \"entries\": [{\"seq\": 3, \"ts_ms\": 0, \"kind\": \"a\", \"detail\": \"\"}, \
             {\"seq\": 3, \"ts_ms\": 0, \"kind\": \"b\", \"detail\": \"\"}]}",
        )
        .unwrap();
        assert!(validate_flight_dump(&bad_seq)
            .unwrap_err()
            .contains("not increasing"));
    }
}
