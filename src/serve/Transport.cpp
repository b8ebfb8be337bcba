//===- serve/Transport.cpp - Socket transport for qualsd -------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
//===----------------------------------------------------------------------===//

#include "serve/Transport.h"

#include "serve/Server.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace quals;
using namespace quals::serve;

namespace {

/// A bidirectional std::streambuf over one socket fd, so Server::run's
/// stream-based protocol loop works over sockets unchanged (the bounded
/// line reader pulls via sbumpc, responses go out via operator<<).
/// Writes use MSG_NOSIGNAL: a peer that disappeared mid-response must
/// surface as a stream error on this session, not SIGPIPE the process.
class FdStreamBuf : public std::streambuf {
public:
  explicit FdStreamBuf(int Fd) : Fd(Fd) {
    setg(InBuf, InBuf, InBuf);
    setp(OutBuf, OutBuf + sizeof(OutBuf));
  }
  ~FdStreamBuf() override { flushOut(); }

protected:
  int_type underflow() override {
    if (gptr() < egptr())
      return traits_type::to_int_type(*gptr());
    ssize_t N;
    do {
      N = ::recv(Fd, InBuf, sizeof(InBuf), 0);
    } while (N < 0 && errno == EINTR);
    if (N <= 0)
      return traits_type::eof(); // Peer closed (or read side shut down).
    setg(InBuf, InBuf, InBuf + N);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type C) override {
    if (!flushOut())
      return traits_type::eof();
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(C);
      pbump(1);
    }
    return traits_type::not_eof(C);
  }

  int sync() override { return flushOut() ? 0 : -1; }

private:
  bool flushOut() {
    const char *P = pbase();
    size_t N = static_cast<size_t>(pptr() - pbase());
    while (N) {
      ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false; // Dead peer: session sees a stream error, not a signal.
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
    setp(OutBuf, OutBuf + sizeof(OutBuf));
    return true;
  }

  int Fd;
  char InBuf[8192];
  char OutBuf[8192];
};

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// True if no server accepts connections at the socket \p Addr names
/// (connect() is refused, or the file is already gone). Otherwise false,
/// with \p Error naming the path. The probe does not block: a live server
/// with a full backlog answers EAGAIN.
bool probeStale(const sockaddr_un &Addr, std::string &Error) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int Err = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                      sizeof(Addr)) == 0
                ? 0
                : errno;
  closeFd(Fd);
  if (Err == ECONNREFUSED || Err == ENOENT)
    return true;
  const std::string Path = Addr.sun_path;
  if (Err == 0 || Err == EAGAIN)
    Error = "'" + Path + "' is served by a running server";
  else
    Error = "probe '" + Path + "': " + std::strerror(Err);
  return false;
}

} // namespace

/// One accepted connection: its socket, its session thread, and a done
/// flag the thread raises so the accept loop can reap it. Lives in a
/// std::list for address stability while the thread runs.
struct TransportSession {
  int Fd = -1;
  std::atomic<bool> Done{false};
  std::thread Th;
};

struct Transport::Impl {
  std::mutex Mutex; ///< Guards Sessions (accept loop vs. stop path).
  std::list<TransportSession> Sessions;
  std::atomic<bool> StopRequested{false};
};

Transport::Transport(Server &S, std::string Path)
    : S(S), Path(std::move(Path)), I(new Impl) {}

Transport::~Transport() {
  // serve() joins on its way out; this handles open()-then-destroy and
  // failure paths.
  for (TransportSession &Sess : I->Sessions) {
    if (Sess.Th.joinable())
      Sess.Th.join();
    closeFd(Sess.Fd);
  }
  closeFd(ListenFd);
  closeFd(StopPipe[0]);
  closeFd(StopPipe[1]);
  if (Bound)
    ::unlink(Path.c_str());
  delete I;
}

bool Transport::open(std::string &Error) {
  if (::pipe(StopPipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "unix socket path too long: '" + Path + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  // Replace a stale socket from a dead server, but never anything else: a
  // mistyped --listen must not delete the user's file, and a second server
  // must not take the socket of a live one.
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      Error = "'" + Path + "' exists and is not a socket";
      return false;
    }
    if (!probeStale(Addr, Error))
      return false;
    ::unlink(Path.c_str());
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Error = "bind '" + Path + "': " + std::strerror(errno);
    return false;
  }
  Bound = true;
  if (::listen(ListenFd, 64) != 0) {
    Error = "listen '" + Path + "': " + std::strerror(errno);
    return false;
  }
  return true;
}

void Transport::requestStop() {
  if (I->StopRequested.exchange(true))
    return;
  char B = 0;
  ssize_t W;
  do {
    W = ::write(StopPipe[1], &B, 1);
  } while (W < 0 && errno == EINTR);
}

void Transport::stop() { requestStop(); }

int Transport::serve() {
  std::fprintf(stderr, "qualsd: listening on %s\n", Path.c_str());
  // A session raises Done when its stream ends; the loop reaps (joins)
  // done sessions each pass so a long-lived server doesn't accumulate a
  // thread per past client.
  auto Reap = [this](bool All) {
    std::lock_guard<std::mutex> Lock(I->Mutex);
    for (auto It = I->Sessions.begin(); It != I->Sessions.end();) {
      if (All || It->Done.load(std::memory_order_acquire)) {
        if (It->Th.joinable())
          It->Th.join();
        closeFd(It->Fd);
        It = I->Sessions.erase(It);
      } else {
        ++It;
      }
    }
  };

  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    int Rc = ::poll(Fds, 2, /*timeout ms=*/200);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (I->StopRequested.load(std::memory_order_acquire))
      break;
    Reap(/*All=*/false);
    if (Rc == 0 || !(Fds[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    std::lock_guard<std::mutex> Lock(I->Mutex);
    I->Sessions.emplace_back();
    TransportSession &Sess = I->Sessions.back();
    Sess.Fd = Fd;
    Sess.Th = std::thread([this, &Sess] {
      FdStreamBuf Buf(Sess.Fd);
      std::istream In(&Buf);
      std::ostream Out(&Buf);
      S.run(In, Out);
      Out.flush();
      ::shutdown(Sess.Fd, SHUT_WR); // FIN: the peer sees a complete stream.
      // A `shutdown` request winds the whole transport down; the reply
      // above is already flushed on this connection, so stopping now
      // cannot truncate it.
      if (S.shutdownRequested())
        requestStop();
      Sess.Done.store(true, std::memory_order_release);
    });
  }

  // Wind-down: stop accepting, then close every other session's read side
  // -- each sees EOF, drains its in-flight analyzes, flushes its remaining
  // responses, and exits its loop. Join them all before returning.
  closeFd(ListenFd);
  {
    std::lock_guard<std::mutex> Lock(I->Mutex);
    for (TransportSession &Sess : I->Sessions)
      if (!Sess.Done.load(std::memory_order_acquire))
        ::shutdown(Sess.Fd, SHUT_RD);
  }
  Reap(/*All=*/true);
  ::unlink(Path.c_str());
  Bound = false; // The dtor must not unlink a path we already freed.
  return 0;
}
