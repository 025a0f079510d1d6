#include "cluster/protocol.hpp"

#include <cstring>

#include "util/check.hpp"

namespace odenet::cluster {

namespace {

// Little-endian append/read primitives over a byte vector / cursor. The
// reader throws on any out-of-bounds access, so every truncation — of
// the fixed header, a length field, or the trailing arrays — surfaces
// as one readable odenet::Error instead of UB.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  const char* what;  // "request" / "response", for error messages

  void need(std::size_t n) const {
    ODENET_CHECK(pos + n <= size, "truncated " << what << " frame: need "
                                               << n << " byte(s) at offset "
                                               << pos << ", payload is "
                                               << size);
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string bytes(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
  std::vector<float> floats(std::size_t n) {
    need(n * 4);
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = f32();
    return v;
  }
};

void seal_frame(std::vector<std::uint8_t>& frame) {
  const std::size_t payload = frame.size() - kFrameHeaderBytes;
  ODENET_CHECK(payload <= kMaxFramePayload,
               "frame payload " << payload << " exceeds the "
                                << kMaxFramePayload << "-byte protocol bound");
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((payload >> (8 * i)) & 0xFF);
  }
}

}  // namespace

std::string response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ResponseStatus::kError: return "error";
  }
  return "unknown";
}

std::uint32_t decode_frame_length(const std::uint8_t* header) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(header[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::vector<std::uint8_t> encode_request(const WireRequest& req) {
  const std::size_t n = static_cast<std::size_t>(req.channels) * req.height *
                        req.width;
  ODENET_CHECK(req.pixels.size() == n,
               "request pixels (" << req.pixels.size()
                                  << ") do not match the declared ["
                                  << req.channels << "," << req.height << ","
                                  << req.width << "] image");
  ODENET_CHECK(req.tenant.size() <= 0xFFFF,
               "tenant id longer than the u16 wire field: "
                   << req.tenant.size() << " bytes");
  ODENET_CHECK(req.model.size() <= 0xFFFF,
               "model name longer than the u16 wire field: "
                   << req.model.size() << " bytes");
  std::vector<std::uint8_t> frame(kFrameHeaderBytes, 0);
  put_u32(frame, kRequestMagicV2);
  put_u64(frame, req.id);
  frame.push_back(static_cast<std::uint8_t>(req.priority));
  frame.push_back(req.evictable ? 1 : 0);
  put_u32(frame, req.deadline_us);
  put_u64(frame, req.model_version);
  put_u16(frame, static_cast<std::uint16_t>(req.tenant.size()));
  put_u16(frame, static_cast<std::uint16_t>(req.model.size()));
  put_u16(frame, req.channels);
  put_u16(frame, req.height);
  put_u16(frame, req.width);
  frame.insert(frame.end(), req.tenant.begin(), req.tenant.end());
  frame.insert(frame.end(), req.model.begin(), req.model.end());
  for (float p : req.pixels) put_f32(frame, p);
  seal_frame(frame);
  return frame;
}

WireRequest decode_request(const std::uint8_t* payload, std::size_t size) {
  Reader r{payload, size, 0, "request"};
  const std::uint32_t magic = r.u32();
  ODENET_CHECK(magic == kRequestMagicV2,
               "bad request magic 0x" << std::hex << magic);
  WireRequest req;
  req.id = r.u64();
  const std::uint8_t priority = r.u8();
  ODENET_CHECK(priority < runtime::kPriorityLevels,
               "request priority byte " << static_cast<int>(priority)
                                        << " out of range");
  req.priority = static_cast<runtime::Priority>(priority);
  req.evictable = (r.u8() & 1) != 0;
  req.deadline_us = r.u32();
  req.model_version = r.u64();
  const std::uint16_t tenant_len = r.u16();
  const std::uint16_t model_len = r.u16();
  req.channels = r.u16();
  req.height = r.u16();
  req.width = r.u16();
  req.tenant = r.bytes(tenant_len);
  req.model = r.bytes(model_len);
  const std::size_t n = static_cast<std::size_t>(req.channels) * req.height *
                        req.width;
  req.pixels = r.floats(n);
  ODENET_CHECK(r.pos == size, "request frame has " << (size - r.pos)
                                                   << " trailing byte(s)");
  return req;
}

std::vector<std::uint8_t> encode_response(const WireResponse& res) {
  ODENET_CHECK(res.logits.size() <= 0xFFFF,
               "logits longer than the u16 wire field: " << res.logits.size());
  ODENET_CHECK(res.message.size() <= 0xFFFF,
               "message longer than the u16 wire field: "
                   << res.message.size());
  std::vector<std::uint8_t> frame(kFrameHeaderBytes, 0);
  put_u32(frame, kResponseMagicV2);
  put_u64(frame, res.id);
  frame.push_back(static_cast<std::uint8_t>(res.status));
  frame.push_back(res.shard);
  put_u32(frame, static_cast<std::uint32_t>(res.predicted));
  put_f32(frame, res.latency_ms);
  put_u64(frame, res.model_version);
  put_u16(frame, static_cast<std::uint16_t>(res.logits.size()));
  put_u16(frame, static_cast<std::uint16_t>(res.message.size()));
  for (float l : res.logits) put_f32(frame, l);
  frame.insert(frame.end(), res.message.begin(), res.message.end());
  seal_frame(frame);
  return frame;
}

WireResponse decode_response(const std::uint8_t* payload, std::size_t size) {
  Reader r{payload, size, 0, "response"};
  const std::uint32_t magic = r.u32();
  ODENET_CHECK(magic == kResponseMagicV2,
               "bad response magic 0x" << std::hex << magic);
  WireResponse res;
  res.id = r.u64();
  const std::uint8_t status = r.u8();
  ODENET_CHECK(status <= static_cast<std::uint8_t>(ResponseStatus::kError),
               "response status byte " << static_cast<int>(status)
                                       << " out of range");
  res.status = static_cast<ResponseStatus>(status);
  res.shard = r.u8();
  res.predicted = static_cast<std::int32_t>(r.u32());
  res.latency_ms = r.f32();
  res.model_version = r.u64();
  const std::uint16_t logits_n = r.u16();
  const std::uint16_t message_len = r.u16();
  res.logits = r.floats(logits_n);
  res.message = r.bytes(message_len);
  ODENET_CHECK(r.pos == size, "response frame has " << (size - r.pos)
                                                    << " trailing byte(s)");
  return res;
}

}  // namespace odenet::cluster
