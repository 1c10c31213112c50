//===- Protocol.h - Wire protocol of the synthesis service ------*- C++-*-===//
///
/// \file
/// The framing and message vocabulary shared by the daemon (Server.h), the
/// client (Client.h), and the CLI. One message = one frame:
///
///     +----------------+----------------------+
///     | length N (u32, | N bytes of UTF-8     |
///     | big-endian)    | JSON (one value)     |
///     +----------------+----------------------+
///
/// Frames are bounded (\c kMaxFrameBytes): a peer announcing a larger
/// payload is answered with a typed `oversized_frame` error and the
/// connection is closed (the stream cannot be resynchronized without
/// trusting the hostile length). A truncated prefix or body is a clean
/// close, never a hang — reads carry no assumptions beyond "bytes arrive
/// or the peer went away".
///
/// Requests are JSON objects with a `method` field: submit / status /
/// result / cancel / stats / drain / ping. Responses always carry
/// `"ok": true|false`; failures add `{"error":{"code","message"}}` with a
/// stable machine-readable code (\c ErrorCode). The full schema lives in
/// DESIGN.md ("Service model").
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_PROTOCOL_H
#define SE2GIS_SERVICE_PROTOCOL_H

#include "service/Json.h"

#include <cstdint>
#include <string>

namespace se2gis {

/// Hard ceiling on one frame's payload (inline DSL sources are a few KB;
/// 8 MiB leaves two orders of magnitude of headroom without letting a
/// hostile length prefix drive allocation).
constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

/// Why a frame read ended.
enum class FrameStatus : unsigned char {
  Ok,        ///< a complete frame was delivered
  Eof,       ///< clean close before the first prefix byte (normal hangup)
  Truncated, ///< the peer closed mid-prefix or mid-payload
  Oversized, ///< the prefix announced more than kMaxFrameBytes
  IoError    ///< read(2)/write(2) failed (errno-level problem)
};

const char *frameStatusName(FrameStatus S);

/// Machine-readable error codes of typed failure responses.
enum class ErrorCode : unsigned char {
  ParseError,     ///< payload was not valid JSON / not an object
  BadRequest,     ///< missing or ill-typed fields, unloadable problem
  UnknownMethod,  ///< `method` names nothing we serve
  OversizedFrame, ///< frame exceeded kMaxFrameBytes
  NotFound,       ///< no such job id
  Overloaded,     ///< admission control: queue at capacity
  Draining,       ///< daemon is draining; no new work admitted
  Internal        ///< unexpected server-side failure
};

const char *errorCodeName(ErrorCode C);

/// Reads one frame from \p Fd into \p Payload. Blocks until a full frame,
/// EOF, or an error; never throws. \returns the status (Payload is valid
/// only for Ok).
FrameStatus readFrame(int Fd, std::string &Payload);

/// Writes one frame. \returns false on any write failure (broken pipe,
/// payload over the bound).
bool writeFrame(int Fd, const std::string &Payload);

/// Builds the canonical typed error response.
JsonValue makeErrorResponse(ErrorCode Code, const std::string &Message);

/// Builds an `{"ok":true}` response to extend.
JsonValue makeOkResponse();

//===----------------------------------------------------------------------===//
// Service addresses
//===----------------------------------------------------------------------===//

/// A parsed listen/connect address: `unix:<path>` (or a bare path) for a
/// Unix-domain socket, `tcp:<host>:<port>` (or `<host>:<port>`) for TCP.
struct ServiceAddr {
  bool IsUnix = true;
  std::string Path;         ///< Unix-domain socket path
  std::string Host;         ///< TCP host
  std::uint16_t Port = 0;   ///< TCP port (0 = ephemeral, reported on bind)

  std::string str() const;
};

/// Parses \p Text into \p Out; on failure returns false with a diagnostic
/// in \p Error.
bool parseServiceAddr(const std::string &Text, ServiceAddr &Out,
                      std::string &Error);

/// Binds and listens on \p Addr. On success returns the fd and, for
/// `tcp:*:0`, rewrites Addr.Port to the bound port; on failure returns -1
/// with a diagnostic in \p Error. Unix paths are unlinked first (the
/// daemon owns its socket path).
int listenOn(ServiceAddr &Addr, std::string &Error);

/// Connects to \p Addr (blocking). \returns the fd, or -1 with \p Error.
int connectTo(const ServiceAddr &Addr, std::string &Error);

/// Closes \p Fd if valid (EINTR-safe convenience).
void closeFd(int Fd);

} // namespace se2gis

#endif // SE2GIS_SERVICE_PROTOCOL_H
