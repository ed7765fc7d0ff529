#include "src/rpc/rpc_message.h"

namespace slice {
namespace {

// AUTH_SYS body length: stamp, machine name (length word + padded bytes),
// uid, gid, gid count, gids.
size_t AuthSysBodySize(const AuthSysCred& cred) {
  return 4 + 4 + cred.machine_name.size() + XdrPad(cred.machine_name.size()) + 4 + 4 + 4 +
         4 * cred.gids.size();
}

// The credential as an opaque body, written in place: the length is known up
// front, so no scratch encoder is needed.
void EncodeAuthSys(XdrEncoder& enc, const AuthSysCred& cred) {
  enc.PutEnum(static_cast<uint32_t>(RpcAuthFlavor::kSys));
  enc.PutUint32(static_cast<uint32_t>(AuthSysBodySize(cred)));
  enc.PutUint32(cred.stamp);
  enc.PutString(cred.machine_name);
  enc.PutUint32(cred.uid);
  enc.PutUint32(cred.gid);
  enc.PutUint32(static_cast<uint32_t>(cred.gids.size()));
  for (uint32_t g : cred.gids) {
    enc.PutUint32(g);
  }
}

// Parses an AUTH_SYS credential in place: the machine name stays a view into
// `body` and the gid list lands in the bounded inline array, so a credential
// decode never allocates. Callers must keep `body` alive while the view is
// consumed.
Result<AuthSysCredView> DecodeAuthBody(ByteSpan body) {
  XdrDecoder dec(body);
  AuthSysCredView cred;
  SLICE_ASSIGN_OR_RETURN(cred.stamp, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(cred.machine_name, dec.GetStringView(255));
  SLICE_ASSIGN_OR_RETURN(cred.uid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(cred.gid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t n, dec.GetUint32());
  if (n > AuthSysCredView::kMaxGids) {
    return Status(StatusCode::kCorrupt, "rpc: too many gids");
  }
  for (uint32_t i = 0; i < n; ++i) {
    SLICE_ASSIGN_OR_RETURN(cred.gids.v[i], dec.GetUint32());
  }
  cred.gids.count = n;
  return cred;
}

// Allocation-free uid extraction from a raw AUTH_SYS credential body: stamp,
// variable-length machine name, then uid. Any short or oversized field falls
// back to 0 (untenanted) rather than failing the whole peek — the credential
// was already bounds-checked as an opaque blob by the caller.
uint32_t PeekAuthSysUid(ByteSpan cred_body) {
  XdrDecoder dec(cred_body);
  if (!dec.GetUint32().ok()) {  // stamp
    return 0;
  }
  Result<uint32_t> name_len = dec.GetUint32();
  if (!name_len.ok() || name_len.value() > 255) {
    return 0;
  }
  if (!dec.GetRawView(name_len.value() + XdrPad(name_len.value())).ok()) {
    return 0;
  }
  Result<uint32_t> uid = dec.GetUint32();
  return uid.ok() ? uid.value() : 0;
}

void EncodeNullVerifier(XdrEncoder& enc) {
  enc.PutEnum(static_cast<uint32_t>(RpcAuthFlavor::kNone));
  enc.PutUint32(0);  // zero-length opaque body
}

}  // namespace

void RpcCall::EncodeHeader(XdrEncoder& enc) const {
  // Six header words, the credential (flavor, length, body), the verifier.
  enc.Reserve(6 * 4 + 8 + AuthSysBodySize(cred) + 8);
  enc.PutUint32(xid);
  enc.PutEnum(static_cast<uint32_t>(RpcMsgType::kCall));
  enc.PutUint32(kRpcVersion);
  enc.PutUint32(prog);
  enc.PutUint32(vers);
  enc.PutUint32(proc);
  EncodeAuthSys(enc, cred);
  EncodeNullVerifier(enc);
}

Bytes RpcCall::Encode() const {
  XdrEncoder enc;
  EncodeHeader(enc);
  enc.PutOpaqueFixed(args);
  return enc.Take();
}

Bytes RpcReply::Encode() const {
  XdrEncoder enc;
  enc.PutUint32(xid);
  enc.PutEnum(static_cast<uint32_t>(RpcMsgType::kReply));
  enc.PutEnum(static_cast<uint32_t>(RpcReplyStat::kAccepted));
  EncodeNullVerifier(enc);
  enc.PutEnum(static_cast<uint32_t>(stat));
  if (stat == RpcAcceptStat::kSuccess) {
    enc.PutOpaqueFixed(result);
  }
  return enc.Take();
}

Result<RpcMessageView> DecodeRpcMessage(ByteSpan data) {
  XdrDecoder dec(data);
  RpcMessageView view;
  SLICE_ASSIGN_OR_RETURN(view.xid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  if (type > 1) {
    return Status(StatusCode::kCorrupt, "rpc: bad msg type");
  }
  view.type = static_cast<RpcMsgType>(type);

  if (view.type == RpcMsgType::kCall) {
    SLICE_ASSIGN_OR_RETURN(uint32_t rpcvers, dec.GetUint32());
    if (rpcvers != kRpcVersion) {
      return Status(StatusCode::kCorrupt, "rpc: bad version");
    }
    SLICE_ASSIGN_OR_RETURN(view.prog, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(view.vers, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(view.proc, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(uint32_t cred_flavor, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(uint32_t cred_len, dec.GetUint32());
    if (cred_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized auth");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan cred_body,
                           dec.GetRawView(cred_len + XdrPad(cred_len)));
    if (cred_flavor == static_cast<uint32_t>(RpcAuthFlavor::kSys)) {
      SLICE_ASSIGN_OR_RETURN(view.cred,
                             DecodeAuthBody(ByteSpan(cred_body.data(), cred_len)));
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_len, dec.GetUint32());
    if (verf_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized auth");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan verf_body,
                           dec.GetRawView(verf_len + XdrPad(verf_len)));
    (void)verf_body;
  } else {
    SLICE_ASSIGN_OR_RETURN(uint32_t reply_stat, dec.GetUint32());
    if (reply_stat != static_cast<uint32_t>(RpcReplyStat::kAccepted)) {
      return Status(StatusCode::kCorrupt, "rpc: denied reply");
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_len, dec.GetUint32());
    if (verf_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized verifier");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan verf_body,
                           dec.GetRawView(verf_len + XdrPad(verf_len)));
    (void)verf_body;
    SLICE_ASSIGN_OR_RETURN(uint32_t accept, dec.GetUint32());
    if (accept > static_cast<uint32_t>(RpcAcceptStat::kSystemErr)) {
      return Status(StatusCode::kCorrupt, "rpc: bad accept stat");
    }
    view.accept_stat = static_cast<RpcAcceptStat>(accept);
  }

  view.body_offset = dec.position();
  view.body = data.subspan(dec.position());
  return view;
}

Result<RpcPeek> PeekRpcMessage(ByteSpan data) {
  XdrDecoder dec(data);
  RpcPeek peek;
  SLICE_ASSIGN_OR_RETURN(peek.xid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  if (type > 1) {
    return Status(StatusCode::kCorrupt, "rpc: bad msg type");
  }
  peek.type = static_cast<RpcMsgType>(type);

  if (peek.type == RpcMsgType::kCall) {
    SLICE_ASSIGN_OR_RETURN(uint32_t rpcvers, dec.GetUint32());
    if (rpcvers != kRpcVersion) {
      return Status(StatusCode::kCorrupt, "rpc: bad version");
    }
    SLICE_ASSIGN_OR_RETURN(peek.prog, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(peek.vers, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(peek.proc, dec.GetUint32());
    // Skip credential and verifier without materializing them; the tenant
    // tag (AUTH_SYS uid) is read in place from the credential bytes.
    for (int i = 0; i < 2; ++i) {
      SLICE_ASSIGN_OR_RETURN(uint32_t flavor, dec.GetUint32());
      SLICE_ASSIGN_OR_RETURN(uint32_t len, dec.GetUint32());
      if (len > 400) {
        return Status(StatusCode::kCorrupt, "rpc: oversized auth");
      }
      SLICE_ASSIGN_OR_RETURN(ByteSpan skipped, dec.GetRawView(len + XdrPad(len)));
      if (i == 0 && flavor == static_cast<uint32_t>(RpcAuthFlavor::kSys)) {
        peek.tenant = PeekAuthSysUid(ByteSpan(skipped.data(), len));
      }
    }
  } else {
    SLICE_ASSIGN_OR_RETURN(uint32_t reply_stat, dec.GetUint32());
    if (reply_stat != static_cast<uint32_t>(RpcReplyStat::kAccepted)) {
      return Status(StatusCode::kCorrupt, "rpc: denied reply");
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t flavor, dec.GetUint32());
    (void)flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t len, dec.GetUint32());
    if (len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized verifier");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan skipped, dec.GetRawView(len + XdrPad(len)));
    (void)skipped;
    SLICE_ASSIGN_OR_RETURN(uint32_t accept, dec.GetUint32());
    peek.accept_stat = static_cast<RpcAcceptStat>(accept);
  }

  peek.body_offset = dec.position();
  return peek;
}

}  // namespace slice
