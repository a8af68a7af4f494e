//! The delivery interface between a broadcast protocol and the replicated
//! application running on the same node (§2.2: "messages are delivered to
//! the application running on the same node").

use crate::types::MsgHdr;
use bytes::Bytes;
use std::any::Any;
use std::sync::Arc;

/// An application's state at a commit point, as a durable replica's
/// checkpoint keeps it ([`App::snapshot`]): immutable, and shared by every
/// incarnation that restores it.
pub type Snapshot = Arc<dyn Any + Send + Sync>;

/// A replicated application: receives committed messages in total order.
pub trait App: Any {
    /// Deliver one committed message. Called exactly once per header, in
    /// header order.
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes);

    /// The delivery record the §2.2 checkers read, when this app keeps one.
    fn delivery_log(&self) -> Option<&DeliveryLog> {
        None
    }

    /// This app's state after everything delivered so far, for a durable
    /// replica's checkpoint, or `None` (the default): an app that takes no
    /// snapshot leaves its replica's journal whole. A snapshot is taken
    /// once per checkpoint, so it should cost what changed since the last
    /// one rather than the history ([`DeliveryLog`]).
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Become the state `snap` holds: a snapshot this app's own type took,
    /// read back by a rebooted replica before it replays its journal. An
    /// app whose [`snapshot`](App::snapshot) is `None` is never restored.
    fn restore(&mut self, snap: &Snapshot) {
        let _ = snap;
        unreachable!("restore of an app that takes no snapshot");
    }
}

/// Downcast helper for inspecting a node's application after a run.
pub fn app_as<T: 'static>(app: &dyn App) -> Option<&T> {
    (app as &dyn Any).downcast_ref::<T>()
}

/// The state `snap` holds, as the `T` that took it ([`App::restore`]).
/// Panics naming `T` if another type took it.
pub fn snapshot_as<T: 'static>(snap: &Snapshot) -> &T {
    snap.downcast_ref::<T>()
        .unwrap_or_else(|| panic!("not a snapshot of {}", std::any::type_name::<T>()))
}

/// Entries per sealed chunk of a [`DeliveryLog`].
const CHUNK: usize = 1024;

/// The default application: records every delivery, for correctness checking
/// and latency accounting.
///
/// The history is a list of sealed chunks of [`CHUNK`] entries, immutable
/// and shared, plus the tail delivered since the last one sealed. A clone,
/// and so a [`snapshot`](App::snapshot), copies the tail and shares the
/// chunks: a checkpoint costs what was delivered since the last one, not
/// the history, and every snapshot a replica's checkpoints ever held
/// shares one copy of it.
#[derive(Clone, Default)]
pub struct DeliveryLog {
    sealed: Vec<Arc<Vec<(MsgHdr, Bytes)>>>,
    tail: Vec<(MsgHdr, Bytes)>,
}

impl App for DeliveryLog {
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes) {
        if self.tail.len() == CHUNK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
            self.sealed.push(Arc::new(full));
        }
        self.tail.push((hdr, payload.clone()));
    }

    fn delivery_log(&self) -> Option<&DeliveryLog> {
        Some(self)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(Arc::new(self.clone()))
    }

    fn restore(&mut self, snap: &Snapshot) {
        *self = snapshot_as::<DeliveryLog>(snap).clone();
    }
}

impl DeliveryLog {
    /// Entries delivered.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(header, payload)` in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &(MsgHdr, Bytes)> {
        self.sealed.iter().flat_map(|c| c.iter()).chain(&self.tail)
    }

    /// The history as one vector, in delivery order.
    pub fn to_vec(&self) -> Vec<(MsgHdr, Bytes)> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter().cloned());
        v
    }

    /// Headers only, in delivery order.
    pub fn headers(&self) -> Vec<MsgHdr> {
        self.iter().map(|(h, _)| *h).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Epoch;

    #[test]
    fn log_records_in_order() {
        let mut log = DeliveryLog::default();
        let e = Epoch::new(0, 1);
        log.deliver(MsgHdr::new(e, 1), &Bytes::from_static(b"a"));
        log.deliver(MsgHdr::new(e, 2), &Bytes::from_static(b"b"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.headers(), vec![MsgHdr::new(e, 1), MsgHdr::new(e, 2)]);
        assert_eq!(log.to_vec()[1].1.as_ref(), b"b");
    }

    /// Across chunk boundaries a snapshot restores the history it was taken
    /// at, shares the sealed chunks with the log, and is untouched by what
    /// the log delivers afterwards.
    #[test]
    fn snapshot_shares_sealed_chunks_and_restores_its_history() {
        let e = Epoch::new(0, 1);
        let hdr = |i: usize| MsgHdr::new(e, i as u32 + 1);
        let mut log = DeliveryLog::default();
        let n = 2 * CHUNK + 5;
        for i in 0..n {
            log.deliver(hdr(i), &Bytes::from(i.to_le_bytes().to_vec()));
        }
        assert_eq!((log.len(), log.sealed.len(), log.tail.len()), (n, 2, 5));
        let snap = log.snapshot().expect("a DeliveryLog snapshots");
        let taken = snapshot_as::<DeliveryLog>(&snap);
        assert!(
            Arc::ptr_eq(&taken.sealed[1], &log.sealed[1]),
            "a chunk was copied"
        );
        log.deliver(hdr(n), &Bytes::new());
        let mut back = DeliveryLog::default();
        back.deliver(hdr(0), &Bytes::new());
        back.restore(&snap);
        assert_eq!(back.len(), n);
        assert_eq!(back.headers(), (0..n).map(hdr).collect::<Vec<_>>());
        assert_eq!(back.to_vec()[..], log.to_vec()[..n]);
        assert_eq!(
            back.iter().last().unwrap().1.as_ref(),
            (n - 1).to_le_bytes()
        );
    }

    #[test]
    fn downcast_via_app_as() {
        let log: Box<dyn App> = Box::<DeliveryLog>::default();
        assert!(app_as::<DeliveryLog>(log.as_ref()).is_some());
        struct Other;
        impl App for Other {
            fn deliver(&mut self, _: MsgHdr, _: &Bytes) {}
        }
        assert!(app_as::<Other>(log.as_ref()).is_none());
    }
}
