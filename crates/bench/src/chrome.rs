//! The Chrome trace-event format, both ways: [`write`](fn@write) renders a
//! recorded timeline and gauge series as the JSON document Perfetto and
//! `chrome://tracing` open directly (every `--trace-out` flag, the
//! flight-recorder dump), and [`read`] / [`load`] re-ingest such a document for
//! `trace-report` and the tests.

use crate::json::{self, Value};
use simnet::{json_escape, DeliveryClass, Gauge, GaugeSample, SimTime, SpanStage, TraceEvent};

fn ts_us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

fn class_name(c: DeliveryClass) -> &'static str {
    match c {
        DeliveryClass::Dma => "dma",
        DeliveryClass::Cpu => "cpu",
    }
}

// Chrome trace-event thread lanes, one per event family, so Perfetto renders
// each node as a process with stable named rows.
const TID_PROTO: u32 = 0;
const TID_CPU: u32 = 1;
const TID_NIC_TX: u32 = 2;
const TID_NIC_RX: u32 = 3;
const TID_SPAN: u32 = 4;
const TID_GAUGE: u32 = 5;

// Nominal duration of a stage-mark slice (µs). Flow arrows must bind to a
// slice, so stage marks render as short `X` slices rather than instants.
const SPAN_SLICE_US: f64 = 0.2;

// Position of a stage mark within its span's flow chain.
#[derive(Copy, Clone, PartialEq, Eq)]
enum FlowPos {
    None,
    Start,
    Step,
    End,
}

// For each event index, where that event sits in its span id's time-ordered
// chain of stage marks. Spans with a single mark get no flow events.
fn flow_positions(events: &[TraceEvent]) -> Vec<FlowPos> {
    let mut chains: std::collections::HashMap<u64, Vec<(SimTime, usize)>> =
        std::collections::HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if let TraceEvent::Span { at, id, .. } = *e {
            chains.entry(id).or_default().push((at, i));
        }
    }
    let mut pos = vec![FlowPos::None; events.len()];
    for chain in chains.values_mut() {
        if chain.len() < 2 {
            continue;
        }
        chain.sort();
        for (k, &(_, i)) in chain.iter().enumerate() {
            pos[i] = if k == 0 {
                FlowPos::Start
            } else if k == chain.len() - 1 {
                FlowPos::End
            } else {
                FlowPos::Step
            };
        }
    }
    pos
}

/// Render a recorded timeline plus a sampled gauge series in the Chrome
/// trace-event JSON format (open with [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`).
///
/// Timestamps are virtual microseconds. Each simulated node becomes a
/// "process" (`pid` = node id) with five named rows — protocol instants,
/// CPU-busy spans, NIC egress spans, NIC ingress spans, and message-lifecycle
/// stage marks — plus one Perfetto counter track per sampled gauge (`ph`
/// `"C"` events named after [`Gauge::name`]). Stage marks of the same span id
/// are chained with flow events (`ph` `s`/`t`/`f`) so the viewer draws causal
/// arrows across nodes; span ids render as hex strings because bit 63 of a
/// message-space id does not survive a JSON `f64` number.
pub fn write(events: &[TraceEvent], gauges: &[GaugeSample]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + gauges.len() * 64 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, entry: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&entry);
    };

    // Name the per-node lanes so the viewer shows meaningful rows.
    let max_node = events
        .iter()
        .map(|e| match *e {
            TraceEvent::Send { src, dst, .. } => src.max(dst),
            ref e => e.node(),
        })
        .chain(gauges.iter().map(|s| s.node))
        .max();
    if let Some(max_node) = max_node {
        for node in 0..=max_node {
            push(&mut out, format!(
                "{{\"ph\":\"M\",\"pid\":{node},\"name\":\"process_name\",\"args\":{{\"name\":\"node {node}\"}}}}"
            ));
            for (tid, name) in [
                (TID_PROTO, "protocol"),
                (TID_CPU, "cpu"),
                (TID_NIC_TX, "nic egress"),
                (TID_NIC_RX, "nic ingress"),
                (TID_SPAN, "lifecycle"),
            ] {
                push(&mut out, format!(
                    "{{\"ph\":\"M\",\"pid\":{node},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
                ));
            }
        }
    }

    let flows = flow_positions(events);
    for (i, e) in events.iter().enumerate() {
        let entry = match *e {
            TraceEvent::Proto { at, node, ev } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{node},\"tid\":{TID_PROTO},\"ts\":{:.3},\"name\":\"{}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                ts_us(at),
                json_escape(ev.name),
                ev.a,
                ev.b
            ),
            TraceEvent::Send {
                at,
                src,
                dst,
                class,
                wire_bytes,
            } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{src},\"tid\":{TID_PROTO},\"ts\":{:.3},\"name\":\"send\",\"args\":{{\"dst\":{dst},\"class\":\"{}\",\"wire_bytes\":{wire_bytes}}}}}",
                ts_us(at),
                class_name(class)
            ),
            TraceEvent::Deliver {
                at,
                node,
                from,
                class,
            } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{node},\"tid\":{TID_PROTO},\"ts\":{:.3},\"name\":\"deliver\",\"args\":{{\"from\":{from},\"class\":\"{}\"}}}}",
                ts_us(at),
                class_name(class)
            ),
            TraceEvent::NicEgress {
                node,
                start,
                end,
                bytes,
                dst,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{TID_NIC_TX},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"tx\",\"args\":{{\"bytes\":{bytes},\"dst\":{dst}}}}}",
                ts_us(start),
                ts_us(end) - ts_us(start)
            ),
            TraceEvent::NicIngress {
                node,
                start,
                end,
                bytes,
                src,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{TID_NIC_RX},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"rx\",\"args\":{{\"bytes\":{bytes},\"src\":{src}}}}}",
                ts_us(start),
                ts_us(end) - ts_us(start)
            ),
            TraceEvent::CpuBusy { node, start, end } => format!(
                "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{TID_CPU},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"busy\",\"args\":{{}}}}",
                ts_us(start),
                ts_us(end) - ts_us(start)
            ),
            TraceEvent::Span {
                at,
                node,
                id,
                stage,
                arg,
            } => {
                let ts = ts_us(at);
                let mut entry = format!(
                    "{{\"ph\":\"X\",\"pid\":{node},\"tid\":{TID_SPAN},\"ts\":{ts:.3},\"dur\":{SPAN_SLICE_US},\"name\":\"{}\",\"args\":{{\"span\":\"{id:#x}\",\"arg\":\"{arg:#x}\"}}}}",
                    stage.name()
                );
                let flow = match flows[i] {
                    FlowPos::None => None,
                    FlowPos::Start => Some("\"ph\":\"s\"".to_string()),
                    FlowPos::Step => Some("\"ph\":\"t\"".to_string()),
                    FlowPos::End => Some("\"ph\":\"f\",\"bp\":\"e\"".to_string()),
                };
                if let Some(ph) = flow {
                    entry.push_str(&format!(
                        ",{{{ph},\"cat\":\"lifecycle\",\"id\":\"{id:#x}\",\"pid\":{node},\"tid\":{TID_SPAN},\"ts\":{ts:.3},\"name\":\"lifecycle\"}}"
                    ));
                }
                entry
            }
        };
        push(&mut out, entry);
    }
    // Gauge series as Perfetto counter tracks: one track per (node, gauge).
    for s in gauges {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"C\",\"pid\":{},\"tid\":{TID_GAUGE},\"ts\":{:.3},\"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                s.node,
                ts_us(s.at),
                s.gauge.name(),
                s.value
            ),
        );
    }
    out.push_str("]}");
    out
}

fn hex_u64(v: Option<&Value>) -> Option<u64> {
    let s = v?.as_str()?;
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

fn us_to_time(us: f64) -> SimTime {
    SimTime::from_nanos((us * 1_000.0).round() as u64)
}

/// Re-ingest a document [`write`](fn@write) produced: the lifecycle stage
/// marks and NIC egress slices (as [`TraceEvent`]s) and the gauge counter
/// tracks. Other entries (lane names, protocol instants, CPU busy, NIC
/// ingress, flow arrows) are skipped.
///
/// Every field the writer emits is required: an entry without one is an
/// error naming the entry and the field (`traceEvents[7] tx: missing dur`),
/// never a default, and so is a counter track that names no gauge.
pub fn read(text: &str) -> Result<(Vec<TraceEvent>, Vec<GaugeSample>), String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("not a chrome trace: no traceEvents array")?;
    let mut events = Vec::new();
    let mut gauges = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let ph = e.get("ph").and_then(Value::as_str);
        if ph != Some("X") && ph != Some("C") {
            continue;
        }
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}]: missing name"))?;
        let missing = |field: &str| format!("traceEvents[{i}] {name}: missing {field}");
        let arg = |key: &str| e.get("args").and_then(|a| a.get(key));
        let node = e
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| missing("pid"))? as usize;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| missing("ts"))?;
        if ph == Some("C") {
            let gauge = Gauge::from_name(name)
                .ok_or_else(|| format!("traceEvents[{i}] {name}: not a gauge"))?;
            let value = arg("value")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("value"))?;
            gauges.push(GaugeSample {
                at: us_to_time(ts),
                node,
                gauge,
                value,
            });
        } else if let Some(stage) = SpanStage::from_name(name) {
            events.push(TraceEvent::Span {
                at: us_to_time(ts),
                node,
                id: hex_u64(arg("span")).ok_or_else(|| missing("span"))?,
                stage,
                arg: hex_u64(arg("arg")).ok_or_else(|| missing("arg"))?,
            });
        } else if name == "tx" {
            let dur = e
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("dur"))?;
            let bytes = arg("bytes")
                .and_then(Value::as_u64)
                .and_then(|b| u32::try_from(b).ok())
                .ok_or_else(|| missing("bytes"))?;
            let dst = arg("dst")
                .and_then(Value::as_u64)
                .ok_or_else(|| missing("dst"))?;
            events.push(TraceEvent::NicEgress {
                node,
                start: us_to_time(ts),
                end: us_to_time(ts + dur),
                bytes,
                dst: dst as usize,
            });
        }
    }
    Ok((events, gauges))
}

/// Read and re-ingest a Chrome trace file, tagging errors with the path.
pub fn load(path: &str) -> Result<(Vec<TraceEvent>, Vec<GaugeSample>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{client_span, msg_span, Event};

    #[test]
    fn write_shape() {
        let events = vec![
            TraceEvent::Proto {
                at: SimTime::from_nanos(1_500),
                node: 0,
                ev: Event::new("commit").a(7),
            },
            TraceEvent::NicEgress {
                node: 0,
                start: SimTime::ZERO,
                end: SimTime::from_nanos(26),
                bytes: 80,
                dst: 1,
            },
            TraceEvent::CpuBusy {
                node: 1,
                start: SimTime::from_nanos(100),
                end: SimTime::from_nanos(700),
            },
        ];
        let json = write(&events, &[]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"commit\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"process_name\""));
        // Balanced braces / brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn write_chains_span_marks_into_flows() {
        let id = msg_span(1, 0, 5);
        let events = vec![
            TraceEvent::Span {
                at: SimTime::from_nanos(100),
                node: 0,
                id,
                stage: SpanStage::LeaderRecv,
                arg: client_span(3, 5),
            },
            TraceEvent::Span {
                at: SimTime::from_nanos(300),
                node: 1,
                id,
                stage: SpanStage::FollowerAccept,
                arg: 0,
            },
            TraceEvent::Span {
                at: SimTime::from_nanos(900),
                node: 0,
                id,
                stage: SpanStage::Commit,
                arg: 0,
            },
            // A lone mark on a different span: slice only, no flow.
            TraceEvent::Span {
                at: SimTime::from_nanos(50),
                node: 2,
                id: client_span(2, 9),
                stage: SpanStage::Submit,
                arg: 0,
            },
        ];
        let json = write(&events, &[]);
        assert!(json.contains("\"name\":\"leader_recv\""));
        assert!(json.contains("\"name\":\"lifecycle\""));
        // One start, one step, one end, all carrying the hex span id.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"t\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains(&format!("\"id\":\"{id:#x}\"")));
        // The lone Submit mark produced no flow id of its own.
        assert!(!json.contains(&format!("\"id\":\"{:#x}\"", client_span(2, 9))));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn write_emits_counter_tracks_for_gauges() {
        let samples = vec![
            GaugeSample {
                at: SimTime::from_micros(1),
                node: 0,
                gauge: Gauge::InflightMsgs,
                value: 3,
            },
            GaugeSample {
                at: SimTime::from_micros(2),
                node: 1,
                gauge: Gauge::Epoch,
                value: 7,
            },
        ];
        let json = write(&[], &samples);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 2);
        assert!(json.contains("\"name\":\"inflight_msgs\""));
        assert!(json.contains("\"value\":7"));
        // Process metadata covers nodes that only appear in the gauge series.
        assert!(json.contains("\"name\":\"node 1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn read_round_trips_spans_tx_and_gauges() {
        let mut events = vec![TraceEvent::NicEgress {
            node: 0,
            start: SimTime::from_nanos(50),
            end: SimTime::from_nanos(76),
            bytes: 80,
            dst: 2,
        }];
        let cid = client_span(5, 1);
        let mid = msg_span(1, 0, 1);
        events.push(TraceEvent::Span {
            at: SimTime::from_nanos(100),
            node: 5,
            id: cid,
            stage: SpanStage::Submit,
            arg: 0,
        });
        for (k, &stage) in SpanStage::ALL[1..8].iter().enumerate() {
            events.push(TraceEvent::Span {
                at: SimTime::from_nanos(1_100 + 1_000 * k as u64),
                node: 0,
                id: mid,
                stage,
                arg: if stage == SpanStage::LeaderRecv {
                    cid
                } else {
                    0
                },
            });
        }
        let gauges = vec![GaugeSample {
            at: SimTime::from_micros(3),
            node: 1,
            gauge: Gauge::Epoch,
            value: 7,
        }];
        // Lanes the reader skips (instants, CPU busy) ride along.
        let mut written = events.clone();
        written.push(TraceEvent::CpuBusy {
            node: 0,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
        });
        assert_eq!(read(&write(&written, &gauges)), Ok((events, gauges)));
    }

    // One entry of each kind the reader ingests, exactly as `write` emits it.
    const TX: &str = r#"{"ph":"X","pid":0,"tid":2,"ts":0.050,"dur":0.026,"name":"tx","args":{"bytes":80,"dst":2}}"#;
    const MARK: &str = r#"{"ph":"X","pid":1,"tid":4,"ts":0.100,"dur":0.2,"name":"commit","args":{"span":"0x5","arg":"0x0"}}"#;
    const TRACK: &str =
        r#"{"ph":"C","pid":0,"tid":5,"ts":1.000,"name":"epoch","args":{"value":7}}"#;
    const LANE: &str = r#"{"ph":"M","pid":0,"name":"process_name","args":{"name":"node 0"}}"#;

    fn doc(entry: &str) -> String {
        format!("{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{LANE},{entry}]}}")
    }

    /// `entry` with `cut` removed must be refused with `want`.
    fn refuses(entry: &str, cut: &str, want: &str) {
        assert!(entry.contains(cut), "{cut} not in {entry}");
        assert_eq!(
            read(&doc(&entry.replacen(cut, "", 1))),
            Err(want.to_string())
        );
    }

    #[test]
    fn read_accepts_what_write_emits() {
        let tx = TraceEvent::NicEgress {
            node: 0,
            start: SimTime::from_nanos(50),
            end: SimTime::from_nanos(76),
            bytes: 80,
            dst: 2,
        };
        let mark = TraceEvent::Span {
            at: SimTime::from_nanos(100),
            node: 1,
            id: 5,
            stage: SpanStage::Commit,
            arg: 0,
        };
        let track = GaugeSample {
            at: SimTime::from_micros(1),
            node: 0,
            gauge: Gauge::Epoch,
            value: 7,
        };
        let json = write(&[tx, mark], &[track]);
        for entry in [LANE, TX, MARK, TRACK] {
            assert!(json.contains(entry), "{entry} not in {json}");
        }
        assert_eq!(read(&doc(TX)), Ok((vec![tx], vec![])));
        assert_eq!(read(&doc(MARK)), Ok((vec![mark], vec![])));
        assert_eq!(read(&doc(TRACK)), Ok((vec![], vec![track])));
    }

    #[test]
    fn read_refuses_an_entry_without_pid() {
        refuses(TX, "\"pid\":0,", "traceEvents[1] tx: missing pid");
    }

    #[test]
    fn read_refuses_an_entry_without_ts() {
        refuses(MARK, "\"ts\":0.100,", "traceEvents[1] commit: missing ts");
    }

    #[test]
    fn read_refuses_a_counter_track_without_value() {
        refuses(TRACK, "\"value\":7", "traceEvents[1] epoch: missing value");
    }

    #[test]
    fn read_refuses_a_counter_track_that_names_no_gauge() {
        let track = TRACK.replacen("epoch", "bogus", 1);
        let want = "traceEvents[1] bogus: not a gauge".to_string();
        assert_eq!(read(&doc(&track)), Err(want));
    }

    #[test]
    fn read_refuses_a_tx_slice_without_dur() {
        refuses(TX, "\"dur\":0.026,", "traceEvents[1] tx: missing dur");
    }

    #[test]
    fn read_refuses_a_tx_slice_without_bytes() {
        refuses(TX, "\"bytes\":80,", "traceEvents[1] tx: missing bytes");
    }

    #[test]
    fn read_refuses_a_tx_slice_without_dst() {
        refuses(TX, ",\"dst\":2", "traceEvents[1] tx: missing dst");
    }

    #[test]
    fn read_refuses_a_stage_mark_without_span() {
        refuses(
            MARK,
            "\"span\":\"0x5\",",
            "traceEvents[1] commit: missing span",
        );
    }

    #[test]
    fn read_refuses_a_stage_mark_without_arg() {
        refuses(
            MARK,
            ",\"arg\":\"0x0\"",
            "traceEvents[1] commit: missing arg",
        );
    }

    #[test]
    fn load_names_the_file() {
        let path =
            std::env::temp_dir().join(format!("chrome-load-test-{}.json", std::process::id()));
        std::fs::write(&path, doc(&TX.replacen("\"dur\":0.026,", "", 1))).unwrap();
        let path = path.to_str().unwrap();
        let err = load(path).unwrap_err();
        assert_eq!(err, format!("{path}: traceEvents[1] tx: missing dur"));
        std::fs::remove_file(path).unwrap();
    }
}
