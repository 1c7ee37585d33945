//! The framed request path shared by the wire workloads: an
//! `ApksClient` talking to a `ServerEndpoint` over an in-process duplex,
//! plus a second connection to the same server on which a traced request
//! drives the identical calls one at a time so each gets its own span.

use crate::trace::Tracer;
use apks_authz::SignedCapability;
use apks_client::{duplex, ApksClient, ServerEndpoint, TransportCost, TransportEnd};
use apks_cloud::CloudServer;
use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::EncryptedIndex;
use apks_wire::{IngestBatch, Request, Response, SearchRequest, SearchResponse, Wire, WireCtx};
use std::sync::Arc;

/// Uploads are signed by this owner identity.
pub const OWNER: &str = "owner";

/// Why a framed operation failed.
pub type OpError = String;

fn endpoint(ctx: &WireCtx, server: &Arc<CloudServer>) -> (TransportEnd, ServerEndpoint) {
    let clock = Arc::new(VirtualClock::new());
    let (client_end, server_end) = duplex(clock.clone(), TransportCost::FREE);
    let ep = ServerEndpoint::new(
        ctx.clone(),
        server.clone(),
        server_end,
        FaultPlan::new(FaultConfig::default()),
        RetryPolicy::default(),
        clock,
    );
    (client_end, ep)
}

/// A search answer that is not the full, unbounded scan it must be
/// under `Deadline::NEVER` and an unlimited budget counts as failed.
fn complete(resp: SearchResponse) -> Result<SearchResponse, OpError> {
    let s = &resp.stats;
    if s.degraded() || s.unscanned_docs > 0 || s.faulted_docs > 0 {
        return Err(format!("degraded answer: {s:?}"));
    }
    Ok(resp)
}

/// Span names of one traced call's steps.
pub struct Steps {
    pub root: &'static str,
    pub encode: &'static str,
    pub send: &'static str,
    pub poll: &'static str,
    pub recv: &'static str,
    pub decode: &'static str,
}

/// Spans of a traced search.
pub const SEARCH: Steps = Steps {
    root: "request",
    encode: "wire.search_encode",
    send: "wire.frame_send",
    poll: "cloud.poll",
    recv: "wire.frame_recv",
    decode: "wire.response_decode",
};

/// Spans of a traced upload.
pub const UPLOAD: Steps = Steps {
    root: "upload",
    encode: "wire.upload_encode",
    send: "wire.upload_frame_send",
    poll: "cloud.poll_upload",
    recv: "wire.upload_frame_recv",
    decode: "wire.upload_response_decode",
};

/// Two connections to one server: a plain client, and a raw transport
/// end for traced requests.
pub struct Framed {
    pub ctx: WireCtx,
    pub server: Arc<CloudServer>,
    client: ApksClient,
    endpoint: ServerEndpoint,
    raw: TransportEnd,
    raw_endpoint: ServerEndpoint,
    next_id: u64,
}

impl Framed {
    pub fn new(server: Arc<CloudServer>) -> Framed {
        let ctx = WireCtx::new(server.system().params().clone());
        let (client_end, ep) = endpoint(&ctx, &server);
        let (raw, raw_endpoint) = endpoint(&ctx, &server);
        Framed {
            client: ApksClient::new(ctx.clone(), client_end),
            endpoint: ep,
            raw,
            raw_endpoint,
            ctx,
            server,
            next_id: 0,
        }
    }

    /// One unbounded search through `ApksClient::search`.
    pub fn search(&mut self, cap: &SignedCapability) -> Result<SearchResponse, OpError> {
        let resp = self
            .client
            .search(&mut self.endpoint, cap, u64::MAX, u64::MAX, 0)
            .map_err(|e| e.to_string())?;
        complete(resp)
    }

    /// One single-record upload through `ApksClient::upload`.
    pub fn upload(&mut self, index: EncryptedIndex) -> Result<u64, OpError> {
        match self
            .client
            .upload(&mut self.endpoint, OWNER, vec![index])
            .map_err(|e| e.to_string())?[..]
        {
            [id] => Ok(id),
            ref ids => Err(format!("one record uploaded, {} ids returned", ids.len())),
        }
    }

    /// Wire bytes both connections have moved, in both directions.
    pub fn wire_bytes(&self) -> u64 {
        let a = self.client.transport_stats();
        let b = self.raw.stats();
        a.bytes_sent + a.bytes_received + b.bytes_sent + b.bytes_received
    }

    /// Sends `req` the way `ApksClient::call` does, one span per step:
    /// encode, frame out, server poll, frame in, decode. Returns the
    /// response and the encoded request.
    fn call_traced(
        &mut self,
        tracer: &mut Tracer,
        req_id: u64,
        names: &Steps,
        req: &Request,
    ) -> Result<(Response, Vec<u8>), OpError> {
        let root = tracer.open(req_id, names.root, None);
        let ctx = &self.ctx;
        let raw = &mut self.raw;
        let ep = &mut self.raw_endpoint;
        let mut steps = || -> Result<(Response, Vec<u8>), OpError> {
            let bytes = tracer.leaf(req_id, names.encode, root, || req.to_bytes(ctx));
            tracer
                .leaf(req_id, names.send, root, || raw.send_frame(&bytes))
                .map_err(|e| e.to_string())?;
            tracer.leaf(req_id, names.poll, root, || ep.poll());
            let frame = tracer
                .leaf(req_id, names.recv, root, || raw.recv_frame())
                .ok_or("no response frame")?
                .map_err(|e| e.to_string())?;
            let resp = tracer
                .leaf(req_id, names.decode, root, || {
                    Response::from_bytes(ctx, &frame)
                })
                .map_err(|e| e.to_string())?;
            Ok((resp, bytes))
        };
        let out = steps();
        tracer.close(root);
        out
    }

    /// A traced unbounded search; returns the answer and the request
    /// bytes (for the server-side decode twin).
    pub fn search_traced(
        &mut self,
        tracer: &mut Tracer,
        req_id: u64,
        cap: &SignedCapability,
    ) -> Result<(SearchResponse, Vec<u8>), OpError> {
        self.next_id += 1;
        let id = self.next_id;
        let req = Request::Search(SearchRequest {
            id,
            deadline_expires_at: u64::MAX,
            pairing_budget: u64::MAX,
            doc_cost_ticks: 0,
            capability: cap.clone(),
        });
        match self.call_traced(tracer, req_id, &SEARCH, &req)? {
            (Response::Result(resp), bytes) if resp.id == id => Ok((complete(resp)?, bytes)),
            (other, _) => Err(format!("unexpected search response: {other:?}")),
        }
    }

    /// A traced single-record upload; returns the id and request bytes.
    pub fn upload_traced(
        &mut self,
        tracer: &mut Tracer,
        req_id: u64,
        index: EncryptedIndex,
    ) -> Result<(u64, Vec<u8>), OpError> {
        self.next_id += 1;
        let req = Request::Upload(IngestBatch {
            owner: OWNER.to_string(),
            seq: self.next_id,
            records: vec![index],
        });
        match self.call_traced(tracer, req_id, &UPLOAD, &req)? {
            (Response::Uploaded { ids }, bytes) if ids.len() == 1 => Ok((ids[0], bytes)),
            (other, _) => Err(format!("unexpected upload response: {other:?}")),
        }
    }
}
