//===- serve/Transport.h - Socket transport for qualsd ----------*- C++ -*-===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket front end for the persistent analysis server: a unix-domain
/// listener (qualsd --listen=PATH) that accepts many concurrent connections
/// and runs one Server session (one Server::run call) per connection, all
/// multiplexed onto the server's shared worker pool and cache.
///
/// **The socket path.** A stale socket file at PATH (from a dead server) is
/// replaced; any other file there makes open() fail and is left untouched.
/// The path is removed again when serve() returns. Once listening, the
/// transport announces `qualsd: listening on PATH` on stderr.
///
/// **Connection lifecycle.** Each accepted socket gets a dedicated session
/// thread running the stdio protocol loop verbatim over the socket (same
/// bounded line reader, same ordered-slot responses, same backpressure), so
/// per-connection byte streams are identical to what the same requests
/// would produce over stdio. A client closing its write side (or the whole
/// socket) ends only that session: in-flight requests drain, responses
/// flush, the connection closes, and the server keeps serving others --
/// unlike stdio, EOF does not stop the process.
///
/// **Cross-connection semantics** (docs/SERVER.md): response ordering and
/// control-request barriers are per-connection -- an `invalidate` barriers
/// its own connection's in-flight analyzes, then drops shared cache state;
/// analyzes racing on *other* connections may complete before or after the
/// drop (either order is sound: results are pure functions of content).
/// A `shutdown` on any connection answers on that connection first, then
/// stops the listener and closes the read side of every other connection;
/// their sessions drain and flush before serve() returns. Responses never
/// get dropped mid-stream.
///
//===----------------------------------------------------------------------===//

#ifndef QUALS_SERVE_TRANSPORT_H
#define QUALS_SERVE_TRANSPORT_H

#include <string>

namespace quals {
namespace serve {

class Server;

/// Owns the listening socket and the per-connection session threads; see
/// the file comment. Not copyable. The Server must outlive it.
class Transport {
public:
  /// Serves \p S on the unix-domain socket at \p Path.
  Transport(Server &S, std::string Path);
  ~Transport(); // Joins any remaining sessions, unlinks the socket.

  Transport(const Transport &) = delete;
  Transport &operator=(const Transport &) = delete;

  /// Creates, binds, and starts listening on the socket. Returns false
  /// with \p Error set on any failure (a non-socket file at the path, a
  /// path too long, a bind error); the transport is then unusable.
  bool open(std::string &Error);

  /// Accepts connections and serves them until a session processes
  /// `shutdown` (or stop() is called). Blocks; returns the process exit
  /// code (0 on clean shutdown). Call open() first.
  int serve();

  /// Asks serve() to wind down exactly as a `shutdown` request would:
  /// stop accepting, close other connections' read sides, drain. Safe
  /// from any thread; tests use it to end a serve() loop externally.
  void stop();

private:
  Server &S;
  std::string Path;
  bool Bound = false; ///< The socket file at Path is ours to unlink.
  int ListenFd = -1;
  int StopPipe[2] = {-1, -1}; ///< Self-pipe: wakes the accept poll.
  struct Impl; ///< Connection bookkeeping (kept out of the header).
  Impl *I;

  void requestStop();
};

} // namespace serve
} // namespace quals

#endif // QUALS_SERVE_TRANSPORT_H
