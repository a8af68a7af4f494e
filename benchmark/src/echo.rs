//! A trivially-correct "protocol" for exercising the load generator on its
//! own: one server that acknowledges every request after 1 µs of CPU.

use abcast::client::RESP_WIRE;
use abcast::{ClientPort, ClientReq, ClientResp};
use simnet::{Ctx, DeliveryClass, NodeId, Process};
use std::time::Duration;

#[derive(Clone, Debug)]
pub enum EchoWire {
    Req(ClientReq),
    Resp(ClientResp),
}

impl ClientPort for EchoWire {
    fn request(req: ClientReq) -> Self {
        EchoWire::Req(req)
    }
    fn response(&self) -> Option<ClientResp> {
        match self {
            EchoWire::Resp(r) => Some(*r),
            EchoWire::Req(_) => None,
        }
    }
}

#[derive(Default)]
pub struct EchoServer {
    pub served: u64,
}

impl Process<EchoWire> for EchoServer {
    fn on_message(&mut self, ctx: &mut Ctx<EchoWire>, from: NodeId, msg: EchoWire) {
        if let EchoWire::Req(req) = msg {
            ctx.use_cpu(Duration::from_micros(1));
            self.served += 1;
            ctx.send(
                from,
                DeliveryClass::Cpu,
                RESP_WIRE,
                EchoWire::Resp(ClientResp { id: req.id }),
            );
        }
    }
}
