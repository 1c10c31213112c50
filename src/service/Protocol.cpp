//===- Protocol.cpp -------------------------------------------------------===//

#include "service/Protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace se2gis;

const char *se2gis::frameStatusName(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::Truncated:
    return "truncated";
  case FrameStatus::Oversized:
    return "oversized";
  case FrameStatus::IoError:
    return "io-error";
  }
  return "?";
}

const char *se2gis::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::ParseError:
    return "parse_error";
  case ErrorCode::BadRequest:
    return "bad_request";
  case ErrorCode::UnknownMethod:
    return "unknown_method";
  case ErrorCode::OversizedFrame:
    return "oversized_frame";
  case ErrorCode::NotFound:
    return "not_found";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::Draining:
    return "draining";
  case ErrorCode::Internal:
    return "internal";
  }
  return "internal";
}

namespace {

/// Reads exactly \p N bytes. \returns N on success, 0 on immediate EOF,
/// -1 on EOF mid-read or error (errno preserved for the caller's triage;
/// 0-vs-(-1) distinguishes a clean hangup from a truncated message).
ssize_t readFull(int Fd, void *Buf, std::size_t N) {
  std::size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, static_cast<char *>(Buf) + Got, N - Got);
    if (R == 0)
      return Got == 0 ? 0 : -1;
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Got += static_cast<std::size_t>(R);
  }
  return static_cast<ssize_t>(Got);
}

bool writeFull(int Fd, const void *Buf, std::size_t N) {
  std::size_t Sent = 0;
  while (Sent < N) {
    ssize_t W = ::write(Fd, static_cast<const char *>(Buf) + Sent, N - Sent);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<std::size_t>(W);
  }
  return true;
}

} // namespace

FrameStatus se2gis::readFrame(int Fd, std::string &Payload) {
  unsigned char Prefix[4];
  ssize_t R = readFull(Fd, Prefix, sizeof(Prefix));
  if (R == 0)
    return FrameStatus::Eof;
  if (R < 0)
    return FrameStatus::Truncated;
  std::uint32_t N = (static_cast<std::uint32_t>(Prefix[0]) << 24) |
                    (static_cast<std::uint32_t>(Prefix[1]) << 16) |
                    (static_cast<std::uint32_t>(Prefix[2]) << 8) |
                    static_cast<std::uint32_t>(Prefix[3]);
  if (N > kMaxFrameBytes)
    return FrameStatus::Oversized;
  Payload.resize(N);
  if (N && readFull(Fd, Payload.data(), N) != static_cast<ssize_t>(N))
    return FrameStatus::Truncated;
  return FrameStatus::Ok;
}

bool se2gis::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > kMaxFrameBytes)
    return false;
  std::uint32_t N = static_cast<std::uint32_t>(Payload.size());
  unsigned char Prefix[4] = {static_cast<unsigned char>(N >> 24),
                             static_cast<unsigned char>(N >> 16),
                             static_cast<unsigned char>(N >> 8),
                             static_cast<unsigned char>(N)};
  // One writev-style contiguous buffer keeps the frame a single syscall in
  // the common case (small messages), which also keeps concurrent writers
  // on *distinct* fds from interleaving at the kernel boundary.
  std::string Buf;
  Buf.reserve(4 + Payload.size());
  Buf.append(reinterpret_cast<const char *>(Prefix), 4);
  Buf.append(Payload);
  return writeFull(Fd, Buf.data(), Buf.size());
}

JsonValue se2gis::makeErrorResponse(ErrorCode Code,
                                    const std::string &Message) {
  JsonValue Err = JsonValue::object();
  Err.set("code", JsonValue::str(errorCodeName(Code)));
  Err.set("message", JsonValue::str(Message));
  JsonValue Resp = JsonValue::object();
  Resp.set("ok", JsonValue::boolean(false));
  Resp.set("error", std::move(Err));
  return Resp;
}

JsonValue se2gis::makeOkResponse() {
  JsonValue Resp = JsonValue::object();
  Resp.set("ok", JsonValue::boolean(true));
  return Resp;
}

//===----------------------------------------------------------------------===//
// Addresses and sockets
//===----------------------------------------------------------------------===//

std::string ServiceAddr::str() const {
  if (IsUnix)
    return "unix:" + Path;
  return "tcp:" + Host + ":" + std::to_string(Port);
}

bool se2gis::parseServiceAddr(const std::string &Text, ServiceAddr &Out,
                              std::string &Error) {
  std::string T = Text;
  if (T.rfind("unix:", 0) == 0) {
    Out.IsUnix = true;
    Out.Path = T.substr(5);
    if (Out.Path.empty()) {
      Error = "unix address needs a socket path (unix:/path/to.sock)";
      return false;
    }
    return true;
  }
  if (T.rfind("tcp:", 0) == 0)
    T = T.substr(4);
  else if (T.find(':') == std::string::npos) {
    // No scheme, no port separator: a bare filesystem path.
    Out.IsUnix = true;
    Out.Path = T;
    if (Out.Path.empty()) {
      Error = "empty service address";
      return false;
    }
    return true;
  }
  std::size_t Colon = T.rfind(':');
  if (Colon == std::string::npos || Colon + 1 >= T.size()) {
    Error = "tcp address needs host:port (tcp:127.0.0.1:7070)";
    return false;
  }
  Out.IsUnix = false;
  Out.Host = T.substr(0, Colon);
  if (Out.Host.empty())
    Out.Host = "127.0.0.1";
  long Port = 0;
  for (std::size_t I = Colon + 1; I < T.size(); ++I) {
    if (T[I] < '0' || T[I] > '9') {
      Error = "tcp port must be numeric";
      return false;
    }
    Port = Port * 10 + (T[I] - '0');
    if (Port > 65535) {
      Error = "tcp port out of range";
      return false;
    }
  }
  Out.Port = static_cast<std::uint16_t>(Port);
  return true;
}

void se2gis::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

namespace {

/// Sun-path capacity check: sockaddr_un has a short fixed buffer.
bool fillUnixAddr(const std::string &Path, sockaddr_un &Sa,
                  std::string &Error) {
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Sa.sun_path)) {
    Error = "unix socket path too long (" + std::to_string(Path.size()) +
            " bytes; limit " + std::to_string(sizeof(Sa.sun_path) - 1) + ")";
    return false;
  }
  std::memcpy(Sa.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

bool fillTcpAddr(const ServiceAddr &Addr, sockaddr_in &Sa,
                 std::string &Error) {
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(Addr.Port);
  if (::inet_pton(AF_INET, Addr.Host.c_str(), &Sa.sin_addr) != 1) {
    Error = "cannot parse tcp host '" + Addr.Host +
            "' (use a numeric IPv4 address)";
    return false;
  }
  return true;
}

} // namespace

int se2gis::listenOn(ServiceAddr &Addr, std::string &Error) {
  int Fd = -1;
  if (Addr.IsUnix) {
    sockaddr_un Sa;
    if (!fillUnixAddr(Addr.Path, Sa, Error))
      return -1;
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    ::unlink(Addr.Path.c_str()); // stale socket from a previous daemon
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0) {
      Error = "bind " + Addr.str() + ": " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
  } else {
    sockaddr_in Sa;
    if (!fillTcpAddr(Addr, Sa, Error))
      return -1;
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0) {
      Error = "bind " + Addr.str() + ": " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
    if (Addr.Port == 0) {
      sockaddr_in Bound;
      socklen_t Len = sizeof(Bound);
      if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
        Addr.Port = ntohs(Bound.sin_port);
    }
  }
  if (::listen(Fd, 64) < 0) {
    Error = "listen " + Addr.str() + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int se2gis::connectTo(const ServiceAddr &Addr, std::string &Error) {
  int Fd = -1;
  if (Addr.IsUnix) {
    sockaddr_un Sa;
    if (!fillUnixAddr(Addr.Path, Sa, Error))
      return -1;
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0) {
      Error = "connect " + Addr.str() + ": " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
  } else {
    sockaddr_in Sa;
    if (!fillTcpAddr(Addr, Sa, Error))
      return -1;
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0) {
      Error = "connect " + Addr.str() + ": " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
  }
  return Fd;
}
