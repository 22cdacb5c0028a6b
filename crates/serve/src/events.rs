//! Typed lifecycle/progress events and the daemon's event bus.
//!
//! Every observable thing a job does — admission, start, each leg's
//! heartbeat, checkpoints, spill/page-in activity, fault recovery,
//! quarantine, the terminal verdict — is a typed [`EventBody`]
//! published on the daemon-wide [`EventBus`] and streamed to
//! `subscribe` clients as NDJSON. A job stopped by its wall-clock
//! deadline says so in its terminal event's stop reason (`wall-clock`),
//! like any other budget.
//!
//! ## The observer must never perturb the observed
//!
//! The bus is **bounded and non-blocking by construction**: each
//! subscriber owns a fixed-capacity queue, and `publish` never waits —
//! a full queue sheds its *oldest* entry and counts the drop (per
//! subscriber and globally). A stalled `top` session therefore costs
//! the runner one mutex poke per event, never a stall, and canonical
//! digests stay bit-identical whether zero or many clients watch (the
//! observer-effect test pins this). Sequence numbers let a client
//! detect exactly what it missed.

use crate::ServeError;
use hardsnap_util::json::Value;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What happened, with its per-kind payload. All counts in per-leg
/// events (`Spill`, `FaultRecovered`, `Quarantine`) are **deltas for
/// that leg**; `Heartbeat` carries cumulative progress.
#[derive(Clone, Debug, PartialEq)]
pub enum EventBody {
    /// The job passed admission and was journaled.
    Admitted {
        /// Daemon-assigned job id.
        id: u64,
        /// The spec's label.
        name: String,
        /// Replicas the job will consume.
        workers: u64,
        /// Priority lane the job queued in (0 = lowest).
        lane: u64,
    },
    /// The scheduler granted replicas; the leg loop is starting.
    Started {
        /// Job id.
        id: u64,
        /// Replica provenance: `"warm"` (leased from the warm pool) or
        /// `"cold"` (built from scratch). Latency metadata only — both
        /// sources yield bit-identical power-on state and digests.
        source: String,
    },
    /// One leg (scheduling quantum of the leg loop) finished.
    Heartbeat {
        /// Job id.
        id: u64,
        /// Cumulative instructions executed.
        instructions: u64,
        /// Cumulative hardware virtual time, ns.
        vtime_ns: u64,
        /// Cumulative scheduler quanta.
        quanta: u64,
        /// Paths completed.
        paths: u64,
        /// Bugs found so far.
        bugs: u64,
        /// Budget consumed: max over all configured budgets, in
        /// permille (1000 = exhausted; 0 = unbudgeted).
        budget_permille: u64,
    },
    /// A crash-atomic checkpoint was written at a leg boundary.
    Checkpoint {
        /// Job id.
        id: u64,
        /// Cumulative instructions at the checkpoint.
        instructions: u64,
    },
    /// The job's snapshot store spilled or paged this leg.
    Spill {
        /// Job id.
        id: u64,
        /// Snapshots spilled to disk this leg.
        spills: u64,
        /// Snapshots paged back in this leg.
        page_ins: u64,
    },
    /// The supervisor recovered from transport faults this leg.
    FaultRecovered {
        /// Job id.
        id: u64,
        /// Operations that succeeded after at least one retry.
        recovered: u64,
    },
    /// Replicas were quarantined and rebuilt this leg.
    Quarantine {
        /// Job id.
        id: u64,
        /// Replicas quarantined this leg.
        quarantined: u64,
    },
    /// The job reached a terminal verdict and `result.json` landed.
    Terminal {
        /// Job id.
        id: u64,
        /// Verdict wire name (`completed`, `over-budget`, ...).
        verdict: String,
        /// Stop reason wire name, when known.
        stop: Option<String>,
        /// Canonical digest (hex), when the run produced one.
        digest: Option<String>,
        /// CI exit code for the verdict.
        exit_code: u64,
    },
}

impl EventBody {
    /// Stable wire tag for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            EventBody::Admitted { .. } => "admitted",
            EventBody::Started { .. } => "started",
            EventBody::Heartbeat { .. } => "heartbeat",
            EventBody::Checkpoint { .. } => "checkpoint",
            EventBody::Spill { .. } => "spill",
            EventBody::FaultRecovered { .. } => "fault-recovered",
            EventBody::Quarantine { .. } => "quarantine",
            EventBody::Terminal { .. } => "terminal",
        }
    }

    /// The job this event concerns.
    pub fn job_id(&self) -> u64 {
        match self {
            EventBody::Admitted { id, .. }
            | EventBody::Started { id, .. }
            | EventBody::Heartbeat { id, .. }
            | EventBody::Checkpoint { id, .. }
            | EventBody::Spill { id, .. }
            | EventBody::FaultRecovered { id, .. }
            | EventBody::Quarantine { id, .. }
            | EventBody::Terminal { id, .. } => *id,
        }
    }
}

/// One published event: a sequenced, timestamped [`EventBody`] plus
/// the subscriber's cumulative drop count at delivery time (how many
/// events this particular subscriber has lost so far — 0 means the
/// stream is gapless).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Bus-wide monotonic sequence number (gaps = drops).
    pub seq: u64,
    /// Milliseconds since the daemon started.
    pub ts_ms: u64,
    /// Events dropped for this subscriber before this one.
    pub dropped: u64,
    /// The payload.
    pub body: EventBody,
}

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

impl Event {
    /// Serializes as a flat object: `seq`, `ts_ms`, `dropped`,
    /// `event` (the kind tag) plus the kind's fields.
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::from([
            ("seq".into(), num(self.seq)),
            ("ts_ms".into(), num(self.ts_ms)),
            ("dropped".into(), num(self.dropped)),
            ("event".into(), Value::Str(self.body.kind().into())),
            ("id".into(), num(self.body.job_id())),
        ]);
        match &self.body {
            EventBody::Admitted {
                name,
                workers,
                lane,
                ..
            } => {
                m.insert("name".into(), Value::Str(name.clone()));
                m.insert("workers".into(), num(*workers));
                m.insert("lane".into(), num(*lane));
            }
            EventBody::Started { source, .. } => {
                m.insert("source".into(), Value::Str(source.clone()));
            }
            EventBody::Heartbeat {
                instructions,
                vtime_ns,
                quanta,
                paths,
                bugs,
                budget_permille,
                ..
            } => {
                m.insert("instructions".into(), num(*instructions));
                m.insert("vtime_ns".into(), num(*vtime_ns));
                m.insert("quanta".into(), num(*quanta));
                m.insert("paths".into(), num(*paths));
                m.insert("bugs".into(), num(*bugs));
                m.insert("budget_permille".into(), num(*budget_permille));
            }
            EventBody::Checkpoint { instructions, .. } => {
                m.insert("instructions".into(), num(*instructions));
            }
            EventBody::Spill {
                spills, page_ins, ..
            } => {
                m.insert("spills".into(), num(*spills));
                m.insert("page_ins".into(), num(*page_ins));
            }
            EventBody::FaultRecovered { recovered, .. } => {
                m.insert("recovered".into(), num(*recovered));
            }
            EventBody::Quarantine { quarantined, .. } => {
                m.insert("quarantined".into(), num(*quarantined));
            }
            EventBody::Terminal {
                verdict,
                stop,
                digest,
                exit_code,
                ..
            } => {
                m.insert("verdict".into(), Value::Str(verdict.clone()));
                if let Some(s) = stop {
                    m.insert("stop".into(), Value::Str(s.clone()));
                }
                if let Some(d) = digest {
                    m.insert("digest".into(), Value::Str(d.clone()));
                }
                m.insert("exit_code".into(), num(*exit_code));
            }
        }
        Value::Obj(m)
    }

    /// Parses an event object, validating the kind tag and every
    /// required field.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] naming the malformed field.
    pub fn from_value(v: &Value) -> Result<Event, ServeError> {
        let Value::Obj(m) = v else {
            return Err(ServeError::Protocol("event must be an object".into()));
        };
        let u = |key: &str| -> Result<u64, ServeError> {
            m.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ServeError::Protocol(format!("event field '{key}' must be a u64")))
        };
        let opt_s = |key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
        let kind = m
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Protocol("event needs an 'event' kind tag".into()))?;
        let id = u("id")?;
        let body = match kind {
            "admitted" => EventBody::Admitted {
                id,
                name: opt_s("name").unwrap_or_default(),
                workers: u("workers")?,
                // Optional for wire compat with pre-lane daemons.
                lane: m
                    .get("lane")
                    .and_then(Value::as_u64)
                    .unwrap_or(crate::job::DEFAULT_LANE),
            },
            "started" => EventBody::Started {
                id,
                source: opt_s("source").unwrap_or_default(),
            },
            "heartbeat" => EventBody::Heartbeat {
                id,
                instructions: u("instructions")?,
                vtime_ns: u("vtime_ns")?,
                quanta: u("quanta")?,
                paths: u("paths")?,
                bugs: u("bugs")?,
                budget_permille: u("budget_permille")?,
            },
            "checkpoint" => EventBody::Checkpoint {
                id,
                instructions: u("instructions")?,
            },
            "spill" => EventBody::Spill {
                id,
                spills: u("spills")?,
                page_ins: u("page_ins")?,
            },
            "fault-recovered" => EventBody::FaultRecovered {
                id,
                recovered: u("recovered")?,
            },
            "quarantine" => EventBody::Quarantine {
                id,
                quarantined: u("quarantined")?,
            },
            "terminal" => EventBody::Terminal {
                id,
                verdict: opt_s("verdict")
                    .ok_or_else(|| ServeError::Protocol("terminal event needs 'verdict'".into()))?,
                stop: opt_s("stop"),
                digest: opt_s("digest"),
                exit_code: u("exit_code")?,
            },
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown event kind '{other}'"
                )))
            }
        };
        Ok(Event {
            seq: u("seq")?,
            ts_ms: u("ts_ms")?,
            dropped: u("dropped")?,
            body,
        })
    }
}

struct SubQueue {
    cap: usize,
    state: Mutex<VecDeque<Event>>,
    cv: Condvar,
    dropped: AtomicU64,
    closed: AtomicBool,
}

/// Handle to one subscriber's bounded queue. Dropping it detaches the
/// subscriber; the bus prunes it on the next publish.
pub struct Subscription {
    q: Arc<SubQueue>,
}

impl Subscription {
    /// Waits up to `timeout` for the next event. `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Event> {
        let mut g = self.q.state.lock().unwrap();
        if g.is_empty() {
            let (guard, _) = self.q.cv.wait_timeout(g, timeout).unwrap();
            g = guard;
        }
        g.pop_front().map(|mut ev| {
            ev.dropped = self.q.dropped.load(Ordering::Relaxed);
            ev
        })
    }

    /// Events this subscriber has lost to its bounded queue so far.
    pub fn dropped(&self) -> u64 {
        self.q.dropped.load(Ordering::Relaxed)
    }

    /// Events currently waiting in the queue.
    pub fn backlog(&self) -> usize {
        self.q.state.lock().unwrap().len()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.q.closed.store(true, Ordering::Relaxed);
    }
}

/// Daemon-wide fan-out of [`Event`]s to bounded subscriber queues.
/// `publish` never blocks: a full subscriber sheds its oldest event.
pub struct EventBus {
    subs: Mutex<Vec<Arc<SubQueue>>>,
    next_seq: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> EventBus {
        EventBus {
            subs: Mutex::new(Vec::new()),
            next_seq: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Registers a subscriber with a queue bounded at `cap` events.
    pub fn subscribe(&self, cap: usize) -> Subscription {
        let q = Arc::new(SubQueue {
            cap: cap.max(1),
            state: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        self.subs.lock().unwrap().push(Arc::clone(&q));
        Subscription { q }
    }

    /// Publishes one event to every live subscriber. Returns the
    /// assigned sequence number and how many subscriber-queue drops
    /// this publish caused. Never blocks on a slow consumer: the only
    /// waits are uncontended O(1) queue pokes.
    pub fn publish(&self, ts_ms: u64, body: EventBody) -> (u64, u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.published.fetch_add(1, Ordering::Relaxed);
        let ev = Event {
            seq,
            ts_ms,
            dropped: 0,
            body,
        };
        let mut dropped_now = 0;
        let mut subs = self.subs.lock().unwrap();
        subs.retain(|q| !q.closed.load(Ordering::Relaxed));
        for q in subs.iter() {
            let mut g = q.state.lock().unwrap();
            if g.len() == q.cap {
                g.pop_front();
                q.dropped.fetch_add(1, Ordering::Relaxed);
                dropped_now += 1;
            }
            g.push_back(ev.clone());
            drop(g);
            q.cv.notify_one();
        }
        self.dropped.fetch_add(dropped_now, Ordering::Relaxed);
        (seq, dropped_now)
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        let mut subs = self.subs.lock().unwrap();
        subs.retain(|q| !q.closed.load(Ordering::Relaxed));
        subs.len()
    }

    /// Total events published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Total events shed across all subscriber queues.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardsnap_util::json::parse;

    fn all_bodies() -> Vec<EventBody> {
        vec![
            EventBody::Admitted {
                id: 1,
                name: "j".into(),
                workers: 2,
                lane: 5,
            },
            EventBody::Started {
                id: 1,
                source: "warm".into(),
            },
            EventBody::Heartbeat {
                id: 1,
                instructions: 128,
                vtime_ns: 9000,
                quanta: 4,
                paths: 2,
                bugs: 1,
                budget_permille: 500,
            },
            EventBody::Checkpoint {
                id: 1,
                instructions: 128,
            },
            EventBody::Spill {
                id: 1,
                spills: 3,
                page_ins: 2,
            },
            EventBody::FaultRecovered {
                id: 1,
                recovered: 5,
            },
            EventBody::Quarantine {
                id: 1,
                quarantined: 1,
            },
            EventBody::Terminal {
                id: 1,
                verdict: "completed".into(),
                stop: Some("complete".into()),
                digest: Some("0x00000000deadbeef".into()),
                exit_code: 0,
            },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for (i, body) in all_bodies().into_iter().enumerate() {
            let ev = Event {
                seq: i as u64,
                ts_ms: 42,
                dropped: 0,
                body,
            };
            let json = ev.to_value().to_json();
            let back = Event::from_value(&parse(&json).unwrap()).unwrap();
            assert_eq!(back, ev, "roundtrip failed for {json}");
        }
    }

    #[test]
    fn from_value_rejects_malformed() {
        let missing_kind = parse("{\"seq\": 0, \"ts_ms\": 0, \"dropped\": 0, \"id\": 1}").unwrap();
        assert!(Event::from_value(&missing_kind).is_err());
        let bad_kind =
            parse("{\"seq\": 0, \"ts_ms\": 0, \"dropped\": 0, \"id\": 1, \"event\": \"nope\"}")
                .unwrap();
        assert!(Event::from_value(&bad_kind).is_err());
        let missing_field = parse(
            "{\"seq\": 0, \"ts_ms\": 0, \"dropped\": 0, \"id\": 1, \"event\": \"heartbeat\"}",
        )
        .unwrap();
        match Event::from_value(&missing_field) {
            Err(ServeError::Protocol(m)) => assert!(m.contains("instructions")),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn bus_bounds_slow_subscribers_and_counts_drops() {
        let bus = EventBus::new();
        let slow = bus.subscribe(4);
        let fast = bus.subscribe(64);
        for i in 0..10 {
            bus.publish(
                i,
                EventBody::Started {
                    id: i,
                    source: "cold".into(),
                },
            );
        }
        // The slow queue kept only the newest 4; 6 were shed.
        assert_eq!(slow.backlog(), 4);
        assert_eq!(slow.dropped(), 6);
        assert_eq!(fast.dropped(), 0);
        assert_eq!(bus.dropped(), 6);
        assert_eq!(bus.published(), 10);
        // The first delivered event reports the drop count and the
        // post-gap sequence number.
        let ev = slow.recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(ev.seq, 6);
        assert_eq!(ev.dropped, 6);
    }

    #[test]
    fn dropped_subscription_is_pruned() {
        let bus = EventBus::new();
        let sub = bus.subscribe(8);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        bus.publish(
            0,
            EventBody::Started {
                id: 1,
                source: "cold".into(),
            },
        );
        assert_eq!(bus.dropped(), 0, "no live queue, nothing shed");
    }
}
