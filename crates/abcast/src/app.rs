//! The delivery interface between a broadcast protocol and the replicated
//! application running on the same node (§2.2: "messages are delivered to
//! the application running on the same node").

use crate::types::MsgHdr;
use bytes::Bytes;
use std::any::Any;

/// A replicated application: receives committed messages in total order.
/// `Send` so protocol nodes can run on the threaded fabric.
pub trait App: Any + Send {
    /// Deliver one committed message. Called exactly once per header, in
    /// header order.
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes);

    /// The delivery record the §2.2 checkers read, when this app keeps one.
    fn delivery_log(&self) -> Option<&DeliveryLog> {
        None
    }
}

/// Downcast helper for inspecting a node's application after a run.
pub fn app_as<T: 'static>(app: &dyn App) -> Option<&T> {
    (app as &dyn Any).downcast_ref::<T>()
}

/// The default application: records every delivery, for correctness checking
/// and latency accounting.
#[derive(Default)]
pub struct DeliveryLog {
    /// `(header, payload)` in delivery order.
    pub entries: Vec<(MsgHdr, Bytes)>,
}

impl App for DeliveryLog {
    fn deliver(&mut self, hdr: MsgHdr, payload: &Bytes) {
        self.entries.push((hdr, payload.clone()));
    }

    fn delivery_log(&self) -> Option<&DeliveryLog> {
        Some(self)
    }
}

impl DeliveryLog {
    /// Headers only, in delivery order.
    pub fn headers(&self) -> Vec<MsgHdr> {
        self.entries.iter().map(|(h, _)| *h).collect()
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
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.headers(), vec![MsgHdr::new(e, 1), MsgHdr::new(e, 2)]);
        assert_eq!(log.entries[1].1.as_ref(), b"b");
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
