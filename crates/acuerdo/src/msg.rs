//! Ring-frame encoding for Acuerdo messages.
//!
//! Three frame kinds flow through the ring buffers:
//!
//! * **Normal** broadcast messages: header, commit stamp and client payload
//!   (Figure 4);
//! * **Segments** of a large broadcast message on a ring route: the entry's
//!   header, a commit stamp, the segment's index and count, and its share of
//!   the payload.
//!   An entry of [`segments`] > 1 travels as that many consecutive frames
//!   so a forwarder can pass each one on as it lands (DESIGN §16); a
//!   receiver treats a Normal frame as segment 0 of 1;
//! * **Diff** messages (§3.4): header with count 0 plus the log entries the
//!   receiving follower may be missing. Diffs larger than
//!   [`AcuerdoConfig::max_diff_part`](crate::AcuerdoConfig::max_diff_part)
//!   are split into consecutively-sent parts; a follower processes the diff
//!   once all parts arrived (parts travel back-to-back on their FIFO lane,
//!   so no other frame of that lane can interleave; each lane reassembles
//!   its own).
//!
//! The **commit stamp** of a Normal or Seg frame is its writer's view of the
//! leader's commit point when it wrote the frame, kept below the frame's own
//! header. A follower commits up to the larger of the leader's Commit_SST row
//! and the highest stamp of its epoch it has read, so commit news rides the
//! payload stream and the leader's row is a heartbeat (DESIGN §4, §7).

use abcast::MsgHdr;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rdma_prims::FixedCodec;
use simnet::params::cpu;
use std::ops::Range;

const TAG_NORMAL: u8 = 1;
const TAG_DIFF: u8 = 2;
const TAG_SEG: u8 = 3;
/// Bytes of a normal frame ahead of its payload: tag, header and commit
/// stamp.
const NORMAL_HEAD: usize = 1 + 2 * MsgHdr::SIZE;
/// Bytes of a segment ahead of its share of the payload: a normal frame's
/// head, then part and parts.
pub(crate) const SEG_HEAD: usize = NORMAL_HEAD + 4;
/// Line rate of the RoCE preset (`NetParams::rdma`), in Gb/s.
const LINE_RATE_GBPS: u128 = 25;
/// Payload bytes per segment: what the NIC serializes in the time of one
/// verb post (3437 B). A segment more costs its forwarder one more post, so
/// a share smaller than this cannot pay for itself.
pub const SEG_BYTES: usize = (cpu::VERB_POST.as_nanos() * LINE_RATE_GBPS / 8) as usize;
/// Bytes of a diff part ahead of its entries: tag, header, part, parts and
/// entry count.
pub(crate) const DIFF_HEAD: usize = 1 + MsgHdr::SIZE + 8;

/// A decoded ring frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A broadcast message.
    Normal {
        /// Total-order position.
        hdr: MsgHdr,
        /// The writer's view of the leader's commit point (module docs).
        commit: MsgHdr,
        /// Client payload.
        payload: Bytes,
    },
    /// One segment of a broadcast message sent as several frames.
    Seg {
        /// Total-order position of the whole entry.
        hdr: MsgHdr,
        /// The writer's view of the leader's commit point (module docs).
        commit: MsgHdr,
        /// Index of this segment.
        part: u16,
        /// Number of segments of the entry.
        parts: u16,
        /// This segment's share of the payload.
        bytes: Bytes,
    },
    /// One part of a recovery diff.
    Diff {
        /// The diff's header: `(new_epoch, 0)`.
        hdr: MsgHdr,
        /// Index of this part.
        part: u16,
        /// Total number of parts.
        parts: u16,
        /// Log entries carried by this part.
        entries: Vec<(MsgHdr, Bytes)>,
    },
}

fn put_hdr(buf: &mut BytesMut, hdr: MsgHdr) {
    let mut tmp = [0u8; MsgHdr::SIZE];
    hdr.encode(&mut tmp);
    buf.put_slice(&tmp);
}

fn get_hdr(buf: &mut impl Buf) -> MsgHdr {
    let mut tmp = [0u8; MsgHdr::SIZE];
    buf.copy_to_slice(&mut tmp);
    MsgHdr::decode(&tmp)
}

/// How many frames an entry with a payload of `len` bytes travels as where
/// it is segmented: one per whole [`SEG_BYTES`], and at least one.
pub fn segments(len: usize) -> u16 {
    (len / SEG_BYTES).clamp(1, usize::from(u16::MAX)) as u16
}

/// The bytes of a `len`-byte payload that segment `part` of `parts` carries:
/// near-equal consecutive shares.
pub(crate) fn segment_range(len: usize, part: u16, parts: u16) -> Range<usize> {
    let (part, parts) = (usize::from(part), usize::from(parts));
    len * part / parts..len * (part + 1) / parts
}

/// The head of frame `part` of an entry sent as `parts` frames: a normal
/// frame's when `parts` is 1, a segment's otherwise. The frame's share of
/// the payload follows it; senders that write frames in parts
/// ([`RingSender::send_parts`](rdma_prims::RingSender::send_parts)) post the
/// two side by side.
pub(crate) struct EntryHead {
    buf: [u8; SEG_HEAD],
    len: usize,
}

impl EntryHead {
    /// The head of frame `part` of `parts` of entry `hdr`, stamped with the
    /// writer's view `commit` of the leader's commit point. The stamp is cut
    /// to just below `hdr`: a frame only ever announces commits of entries
    /// its reader is sent ahead of it (a catch-up or forwarded copy can be
    /// written after its own entry committed).
    pub(crate) fn new(hdr: MsgHdr, commit: MsgHdr, part: u16, parts: u16) -> Self {
        let below = MsgHdr::new(hdr.epoch, hdr.cnt.saturating_sub(1));
        let mut buf = [0u8; SEG_HEAD];
        buf[0] = if parts == 1 { TAG_NORMAL } else { TAG_SEG };
        hdr.encode(&mut buf[1..1 + MsgHdr::SIZE]);
        commit
            .min(below)
            .encode(&mut buf[1 + MsgHdr::SIZE..NORMAL_HEAD]);
        if parts == 1 {
            return EntryHead {
                buf,
                len: NORMAL_HEAD,
            };
        }
        buf[NORMAL_HEAD..NORMAL_HEAD + 2].copy_from_slice(&part.to_le_bytes());
        buf[NORMAL_HEAD + 2..].copy_from_slice(&parts.to_le_bytes());
        EntryHead { buf, len: SEG_HEAD }
    }

    /// The head's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Encode a normal broadcast frame that announces no commit (its stamp is
/// `MsgHdr::ZERO`).
pub fn encode_normal(hdr: MsgHdr, payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(NORMAL_HEAD + payload.len());
    buf.put_slice(EntryHead::new(hdr, MsgHdr::ZERO, 0, 1).as_bytes());
    buf.put_slice(payload);
    buf.freeze()
}

/// Encode one diff part.
pub fn encode_diff(hdr: MsgHdr, part: u16, parts: u16, entries: &[(MsgHdr, Bytes)]) -> Bytes {
    let body: usize = entries
        .iter()
        .map(|(_, p)| MsgHdr::SIZE + 4 + p.len())
        .sum();
    let mut buf = BytesMut::with_capacity(DIFF_HEAD + body);
    buf.put_u8(TAG_DIFF);
    put_hdr(&mut buf, hdr);
    buf.put_u16_le(part);
    buf.put_u16_le(parts);
    buf.put_u32_le(entries.len() as u32);
    for (h, p) in entries {
        put_hdr(&mut buf, *h);
        buf.put_u32_le(p.len() as u32);
        buf.put_slice(p);
    }
    buf.freeze()
}

/// Split `entries` into diff parts of at most `max_part` encoded bytes each
/// and encode them all. Always returns at least one part (an empty diff is a
/// valid epoch-entry message).
pub fn encode_diff_parts(hdr: MsgHdr, entries: &[(MsgHdr, Bytes)], max_part: usize) -> Vec<Bytes> {
    let mut chunks: Vec<&[(MsgHdr, Bytes)]> = Vec::new();
    let mut start = 0;
    let mut size = 0usize;
    for (i, (_, p)) in entries.iter().enumerate() {
        let e = MsgHdr::SIZE + 4 + p.len();
        if size > 0 && size + e > max_part {
            chunks.push(&entries[start..i]);
            start = i;
            size = 0;
        }
        size += e;
    }
    chunks.push(&entries[start..]);
    let parts = chunks.len() as u16;
    chunks
        .iter()
        .enumerate()
        .map(|(i, c)| encode_diff(hdr, i as u16, parts, c))
        .collect()
}

/// Decode a ring frame that came off its ring as `head` followed by a landed
/// `body` ([`RingFrame`](rdma_prims::RingFrame)): the same frame as
/// [`decode`] of the two joined, with a body that continues the payload
/// kept as it is, not copied. Entry frames are sent as their head and their
/// payload (or share), so the body is the whole payload.
pub fn decode_gathered(head: Bytes, body: Bytes) -> Option<Frame> {
    if body.is_empty() {
        return decode(head);
    }
    let mut frame = decode(head.clone());
    match &mut frame {
        Some(Frame::Normal { payload: rest, .. } | Frame::Seg { bytes: rest, .. }) => {
            rest.unsplit(body);
            frame
        }
        _ => {
            let mut raw = head;
            raw.unsplit(body);
            decode(raw)
        }
    }
}

/// Decode a ring frame.
///
/// Returns `None` on a malformed frame (never produced by this codec; the
/// protocol treats it as a fatal desync in debug builds).
pub fn decode(mut raw: Bytes) -> Option<Frame> {
    if raw.len() < 1 + MsgHdr::SIZE {
        return None;
    }
    let tag = raw.get_u8();
    let hdr = get_hdr(&mut raw);
    match tag {
        TAG_NORMAL => {
            if raw.len() < MsgHdr::SIZE {
                return None;
            }
            let commit = get_hdr(&mut raw);
            Some(Frame::Normal {
                hdr,
                commit,
                payload: raw,
            })
        }
        TAG_SEG => {
            if raw.len() < MsgHdr::SIZE + 4 {
                return None;
            }
            let commit = get_hdr(&mut raw);
            let part = raw.get_u16_le();
            let parts = raw.get_u16_le();
            if part >= parts || parts < 2 {
                return None;
            }
            Some(Frame::Seg {
                hdr,
                commit,
                part,
                parts,
                bytes: raw,
            })
        }
        TAG_DIFF => {
            if raw.len() < 8 {
                return None;
            }
            let part = raw.get_u16_le();
            let parts = raw.get_u16_le();
            let count = raw.get_u32_le();
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                if raw.len() < MsgHdr::SIZE + 4 {
                    return None;
                }
                let h = get_hdr(&mut raw);
                let len = raw.get_u32_le() as usize;
                if raw.len() < len {
                    return None;
                }
                entries.push((h, raw.split_to(len)));
            }
            Some(Frame::Diff {
                hdr,
                part,
                parts,
                entries,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast::Epoch;

    fn hdr(r: u32, l: u32, c: u32) -> MsgHdr {
        MsgHdr::new(Epoch::new(r, l), c)
    }

    fn encode_seg(hdr: MsgHdr, commit: MsgHdr, part: u16, parts: u16, bytes: &[u8]) -> Bytes {
        Bytes::from_parts(&[EntryHead::new(hdr, commit, part, parts).as_bytes(), bytes])
    }

    #[test]
    fn normal_roundtrip() {
        let h = hdr(0, 1, 7);
        let p = Bytes::from_static(b"hello world");
        let f = decode(encode_normal(h, &p)).unwrap();
        assert_eq!(
            f,
            Frame::Normal {
                hdr: h,
                commit: MsgHdr::ZERO,
                payload: p
            }
        );
    }

    #[test]
    fn stamped_heads_roundtrip_below_their_own_header() {
        let h = hdr(2, 5, 9);
        let p = Bytes::from_static(b"body");
        for (stamp, carried) in [
            // Commits of earlier entries and earlier epochs go as written.
            (hdr(2, 5, 4), hdr(2, 5, 4)),
            (hdr(1, 3, 700), hdr(1, 3, 700)),
            (hdr(2, 5, 8), hdr(2, 5, 8)),
            // A stamp at or past the frame's own entry is cut to just below.
            (h, hdr(2, 5, 8)),
            (hdr(2, 5, 50), hdr(2, 5, 8)),
            (hdr(3, 0, 1), hdr(2, 5, 8)),
        ] {
            let raw = Bytes::from_parts(&[EntryHead::new(h, stamp, 0, 1).as_bytes(), &p]);
            assert_eq!(raw.len(), NORMAL_HEAD + p.len());
            let normal = Frame::Normal {
                hdr: h,
                commit: carried,
                payload: p.clone(),
            };
            assert_eq!(decode(raw), Some(normal), "stamp {stamp:?}");
            let seg = Frame::Seg {
                hdr: h,
                commit: carried,
                part: 2,
                parts: 3,
                bytes: p.clone(),
            };
            assert_eq!(decode(encode_seg(h, stamp, 2, 3, &p)), Some(seg));
        }
    }

    #[test]
    fn truncated_heads_are_rejected() {
        let h = hdr(2, 5, 9);
        let raw = encode_seg(h, hdr(2, 5, 3), 0, 1, b"");
        assert_eq!(raw.len(), NORMAL_HEAD);
        assert!(decode(raw.clone()).is_some());
        // Cut anywhere inside the header or the stamp.
        for cut in [0, 1, MsgHdr::SIZE, MsgHdr::SIZE + 1, NORMAL_HEAD - 1] {
            assert_eq!(decode(raw.slice(..cut)), None, "cut at {cut}");
        }
    }

    #[test]
    fn seg_roundtrip() {
        let h = hdr(3, 1, 42);
        let c = hdr(3, 1, 40);
        let p = Bytes::from(vec![7u8; 100]);
        let f = decode(encode_seg(h, c, 1, 3, &p)).unwrap();
        assert_eq!(
            f,
            Frame::Seg {
                hdr: h,
                commit: c,
                part: 1,
                parts: 3,
                bytes: p
            }
        );
        // A one-segment entry is a normal frame, byte for byte.
        let p = Bytes::from_static(b"whole");
        assert_eq!(encode_seg(h, MsgHdr::ZERO, 0, 1, &p), encode_normal(h, &p));
    }

    #[test]
    fn truncated_or_inconsistent_segments_are_rejected() {
        let raw = encode_seg(hdr(1, 0, 5), hdr(1, 0, 4), 0, 2, b"payload");
        // Cut inside the stamp or the part/parts fields: no room for the
        // segment head.
        for cut in [NORMAL_HEAD - 1, SEG_HEAD - 1, SEG_HEAD - 3] {
            assert_eq!(decode(raw.slice(..cut)), None, "cut at {cut}");
        }
        // An empty share is still a segment; a part past the count is not.
        assert!(decode(raw.slice(..SEG_HEAD)).is_some());
        assert_eq!(
            decode(encode_seg(hdr(1, 0, 5), MsgHdr::ZERO, 2, 2, b"x")),
            None
        );
    }

    #[test]
    fn segment_count_follows_the_verb_post_and_the_shares_tile_the_payload() {
        assert_eq!(
            LINE_RATE_GBPS as f64,
            simnet::NetParams::rdma().nic.line_rate_gbps
        );
        assert_eq!(SEG_BYTES, 3437);
        assert_eq!(segments(0), 1);
        assert_eq!(segments(6000), 1);
        assert_eq!(segments(8192), 2);
        assert_eq!(segments(3 * SEG_BYTES), 3);
        for len in [0usize, 1, 8192, 10_001] {
            for parts in 1..=4u16 {
                let shares: Vec<_> = (0..parts).map(|p| segment_range(len, p, parts)).collect();
                assert_eq!(shares[0].start, 0);
                assert_eq!(shares[parts as usize - 1].end, len);
                assert!(shares.windows(2).all(|w| w[0].end == w[1].start));
            }
        }
    }

    #[test]
    fn gathered_frames_decode_as_joined_ones_and_keep_their_body() {
        let (h, c) = (hdr(3, 1, 42), hdr(3, 1, 40));
        let body = Bytes::from(vec![9u8; 2000]);
        let diff = encode_diff(hdr(4, 1, 0), 0, 1, &[(h, body.clone())]);
        for (head, body) in [
            (
                Bytes::copy_from_slice(EntryHead::new(h, c, 0, 1).as_bytes()),
                body.clone(),
            ),
            (
                Bytes::copy_from_slice(EntryHead::new(h, c, 1, 3).as_bytes()),
                body.clone(),
            ),
            // Split anywhere else, the two are joined first.
            (diff.slice(..30), diff.slice(30..)),
            (diff.clone(), Bytes::new()),
        ] {
            let joined = Bytes::from_parts(&[&head, &body]);
            let frame = decode_gathered(head.clone(), body.clone());
            assert_eq!(frame, decode(joined));
            if let Some(Frame::Normal { payload: p, .. } | Frame::Seg { bytes: p, .. }) = frame {
                assert_eq!(p.as_ptr(), body.as_ptr(), "the body was copied");
            }
        }
    }

    #[test]
    fn empty_payload_roundtrip() {
        let h = hdr(0, 1, 1);
        let f = decode(encode_normal(h, &Bytes::new())).unwrap();
        match f {
            Frame::Normal { payload, .. } => assert!(payload.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn diff_roundtrip() {
        let h = hdr(1, 3, 0);
        let entries = vec![
            (hdr(0, 1, 5), Bytes::from_static(b"five")),
            (hdr(0, 1, 6), Bytes::from_static(b"")),
            (hdr(0, 1, 7), Bytes::from_static(b"seven")),
        ];
        let f = decode(encode_diff(h, 0, 1, &entries)).unwrap();
        assert_eq!(
            f,
            Frame::Diff {
                hdr: h,
                part: 0,
                parts: 1,
                entries
            }
        );
    }

    #[test]
    fn empty_diff_is_one_part() {
        let parts = encode_diff_parts(hdr(1, 2, 0), &[], 1024);
        assert_eq!(parts.len(), 1);
        match decode(parts[0].clone()).unwrap() {
            Frame::Diff {
                part,
                parts,
                entries,
                ..
            } => {
                assert_eq!((part, parts), (0, 1));
                assert!(entries.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn large_diff_splits_and_reassembles() {
        let entries: Vec<(MsgHdr, Bytes)> = (1..=50u32)
            .map(|c| (hdr(0, 1, c), Bytes::from(vec![c as u8; 100])))
            .collect();
        let parts = encode_diff_parts(hdr(1, 2, 0), &entries, 500);
        assert!(parts.len() > 5, "got {} parts", parts.len());
        let mut collected = Vec::new();
        let total = parts.len() as u16;
        for (i, raw) in parts.into_iter().enumerate() {
            match decode(raw).unwrap() {
                Frame::Diff {
                    hdr: h,
                    part,
                    parts,
                    entries,
                } => {
                    assert_eq!(h, hdr(1, 2, 0));
                    assert_eq!(part, i as u16);
                    assert_eq!(parts, total);
                    collected.extend(entries);
                }
                _ => panic!(),
            }
        }
        assert_eq!(collected, entries);
    }

    #[test]
    fn part_size_respected() {
        let entries: Vec<(MsgHdr, Bytes)> = (1..=20u32)
            .map(|c| (hdr(0, 1, c), Bytes::from(vec![0u8; 50])))
            .collect();
        for raw in encode_diff_parts(hdr(1, 2, 0), &entries, 200) {
            // Each entry is 66 bytes encoded; cap 200 → ≤ 3 entries/part,
            // frame ≤ header + 3*66.
            assert!(raw.len() <= 1 + 12 + 8 + 3 * 66);
        }
    }

    #[test]
    fn oversized_single_entry_still_ships() {
        // One entry larger than max_part must still go out (alone).
        let entries = vec![(hdr(0, 1, 1), Bytes::from(vec![9u8; 5000]))];
        let parts = encode_diff_parts(hdr(1, 2, 0), &entries, 100);
        assert_eq!(parts.len(), 1);
        match decode(parts[0].clone()).unwrap() {
            Frame::Diff { entries: e, .. } => assert_eq!(e.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(decode(Bytes::from_static(b"")), None);
        assert_eq!(decode(Bytes::from_static(b"\x07garbage-here")), None);
        let mut truncated = encode_diff(
            hdr(1, 1, 0),
            0,
            1,
            &[(hdr(0, 1, 1), Bytes::from_static(b"xxxx"))],
        )
        .to_vec();
        truncated.truncate(truncated.len() - 2);
        assert_eq!(decode(Bytes::from(truncated)), None);
    }
}
