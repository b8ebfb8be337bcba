//===- tests/transport_test.cpp - Socket transport tests -------------------===//
//
// Part of the libquals project, reproducing "A Theory of Type Qualifiers"
// (Foster, Fähndrich, Aiken; PLDI 1999).
//
// End-to-end coverage for serve/Transport: the socket path (stale socket
// replaced, a live one or any other file left alone, ':' allowed),
// multi-client byte identity against stdio, cross-connection invalidate
// and shutdown semantics, and socket-level hostile input (the hardening
// expectations of tests/hardening_test.cpp carried onto the wire).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Transport.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace quals;
using namespace quals::serve;

namespace {

/// A fresh temp dir removed on scope exit (socket paths live here).
class TempDir {
public:
  TempDir() {
    Dir = std::filesystem::temp_directory_path() /
          ("quals_transport_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(Counter++));
    std::filesystem::create_directories(Dir);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  std::filesystem::path Dir;

private:
  static int Counter;
};

int TempDir::Counter = 0;

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

void sendAll(int Fd, const std::string &Bytes) {
  const char *P = Bytes.data();
  size_t N = Bytes.size();
  while (N) {
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W <= 0) {
      if (W < 0 && errno == EINTR)
        continue;
      return;
    }
    P += W;
    N -= static_cast<size_t>(W);
  }
}

/// Reads until \p Lines newlines have arrived (or EOF).
std::string recvLines(int Fd, size_t Lines) {
  std::string Out;
  size_t Seen = 0;
  char Buf[4096];
  while (Seen < Lines) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    for (ssize_t I = 0; I != N; ++I)
      if (Buf[I] == '\n')
        ++Seen;
    Out.append(Buf, static_cast<size_t>(N));
  }
  return Out;
}

std::string recvAll(int Fd) {
  std::string Out;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  return Out;
}

/// A Server + unix-socket Transport serving on a background thread, torn
/// down via a real `shutdown` request (or stop()) at scope exit.
class LiveServer {
public:
  explicit LiveServer(ServerConfig Config = {})
      : Path((Dir.Dir / "qualsd.sock").string()), S(Config) {
    T = std::make_unique<Transport>(S, Path);
    std::string Error;
    Opened = T->open(Error);
    EXPECT_TRUE(Opened) << Error;
    if (Opened)
      Serve = std::thread([this] { ExitCode = T->serve(); });
  }
  ~LiveServer() { join(); }

  int connect() { return connectUnix(Path); }

  /// Stops the transport (as a `shutdown` request would) and joins; safe
  /// to call twice.
  void join() {
    if (Serve.joinable()) {
      T->stop();
      Serve.join();
    }
  }

  TempDir Dir;
  std::string Path;
  Server S;
  std::unique_ptr<Transport> T;
  bool Opened = false;
  std::thread Serve;
  int ExitCode = -1;
};

/// The stdio reference: the same request stream through a fresh server.
std::string stdioReference(const std::string &Requests,
                           ServerConfig Config = {}) {
  Server S(Config);
  std::istringstream In(Requests);
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  return Out.str();
}

std::string analyzeLine(int Id, const std::string &Source,
                        bool Delta = false) {
  return "{\"id\":" + std::to_string(Id) + ",\"method\":\"" +
         (Delta ? "analyze-delta" : "analyze") +
         "\",\"params\":{\"source\":\"" + Source + "\",\"name\":\"t" +
         std::to_string(Id % 3) + ".c\"}}\n";
}

} // namespace

TEST(Transport, SocketPathWithColonServes) {
  // Every --listen value is a socket path, ':' included.
  TempDir Dir;
  std::string Path = (Dir.Dir / "a:b.sock").string();
  Server S(ServerConfig{});
  Transport T(S, Path);
  std::string Error;
  ASSERT_TRUE(T.open(Error)) << Error;
  std::thread Serve([&T] { EXPECT_EQ(T.serve(), 0); });
  int Fd = connectUnix(Path);
  ASSERT_GE(Fd, 0);
  std::string Req = analyzeLine(1, "int colon(int *p) { return *p; }") +
                    "{\"id\":2,\"method\":\"shutdown\"}\n";
  sendAll(Fd, Req);
  std::string Got = recvAll(Fd);
  ::close(Fd);
  Serve.join();
  EXPECT_EQ(Got, stdioReference(Req));
  EXPECT_FALSE(std::filesystem::exists(Path)); // Removed on the way out.
}

TEST(Transport, OpenLeavesANonSocketFileAlone) {
  // A mistyped --listen must not delete the user's file.
  TempDir Dir;
  std::string Path = (Dir.Dir / "notes.txt").string();
  const std::string Bytes = "sixteen bytes!!\n";
  {
    std::ofstream F(Path, std::ios::binary);
    F << Bytes;
  }
  {
    Server S(ServerConfig{});
    Transport T(S, Path);
    std::string Error;
    EXPECT_FALSE(T.open(Error));
    EXPECT_NE(Error.find(Path), std::string::npos) << Error;
  }
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Kept;
  Kept << In.rdbuf();
  EXPECT_EQ(Kept.str(), Bytes);
}

TEST(Transport, OpenReplacesAStaleSocket) {
  // A socket file left behind by a dead server is replaced.
  TempDir Dir;
  std::string Path = (Dir.Dir / "stale.sock").string();
  {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    ASSERT_EQ(::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
              0);
    ::close(Fd); // Closed without unlinking: a stale socket file.
  }
  ASSERT_TRUE(std::filesystem::is_socket(Path));
  Server S(ServerConfig{});
  Transport T(S, Path);
  std::string Error;
  ASSERT_TRUE(T.open(Error)) << Error;
  std::thread Serve([&T] { EXPECT_EQ(T.serve(), 0); });
  int Fd = connectUnix(Path);
  ASSERT_GE(Fd, 0);
  sendAll(Fd, "{\"id\":1,\"method\":\"shutdown\"}\n");
  EXPECT_EQ(recvAll(Fd), "{\"id\":1,\"ok\":true}\n");
  ::close(Fd);
  Serve.join();
}

TEST(Transport, OpenRefusesALiveSocket) {
  // A second server at a live server's path fails with the path named and
  // leaves the first one reachable.
  LiveServer Live;
  ASSERT_TRUE(Live.Opened);
  {
    Server S(ServerConfig{});
    Transport T(S, Live.Path);
    std::string Error;
    EXPECT_FALSE(T.open(Error));
    EXPECT_NE(Error.find(Live.Path), std::string::npos) << Error;
  }
  ASSERT_TRUE(std::filesystem::is_socket(Live.Path));
  int Fd = Live.connect();
  ASSERT_GE(Fd, 0);
  std::string Req = analyzeLine(1, "int live(int *p) { return *p; }");
  sendAll(Fd, Req);
  EXPECT_EQ(recvLines(Fd, 1), stdioReference(Req));
  ::close(Fd);
}

TEST(Transport, MultiClientByteIdenticalToStdio) {
  // N concurrent connections, each streaming M interleaved analyze /
  // analyze-delta requests, all multiplexed onto one -j4 worker pool.
  // Every connection's response bytes must equal a serial stdio run of
  // the same stream -- the tentpole's correctness bar. (Distinct streams
  // share sources across connections on purpose: cross-connection cache
  // hits must not change bytes either.)
  constexpr int Clients = 4, Requests = 6;
  ServerConfig Config;
  Config.Jobs = 4;
  LiveServer L(Config);
  ASSERT_TRUE(L.Opened);

  std::vector<std::string> Streams(Clients), Got(Clients), Want(Clients);
  for (int C = 0; C != Clients; ++C)
    for (int R = 0; R != Requests; ++R)
      Streams[C] += analyzeLine(C * Requests + R,
                                "int v" + std::to_string((C + R) % 5) +
                                    "(int *p) { return *p; }",
                                /*Delta=*/R % 2 == 1);

  std::vector<std::thread> ClientThreads;
  for (int C = 0; C != Clients; ++C)
    ClientThreads.emplace_back([&, C] {
      int Fd = L.connect();
      ASSERT_GE(Fd, 0);
      sendAll(Fd, Streams[C]);
      ::shutdown(Fd, SHUT_WR); // Half-close: EOF ends the session cleanly.
      Got[C] = recvAll(Fd);
      ::close(Fd);
    });
  for (std::thread &T : ClientThreads)
    T.join();
  L.join();
  EXPECT_EQ(L.ExitCode, 0);

  for (int C = 0; C != Clients; ++C) {
    Want[C] = stdioReference(Streams[C], Config);
    EXPECT_EQ(Got[C], Want[C]) << "connection " << C;
  }
}

TEST(Transport, InvalidateFromOneConnectionWhileOthersServe) {
  // Barriers are per-connection: an invalidate on B drops shared cache
  // state after barriering B's own in-flight work only. A's requests keep
  // producing byte-identical responses before and after the drop (results
  // are pure functions of content, so either interleaving is sound).
  ServerConfig Config;
  Config.Jobs = 2;
  LiveServer L(Config);
  ASSERT_TRUE(L.Opened);
  int A = L.connect(), B = L.connect();
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);

  std::string Req = analyzeLine(1, "int ab(int *p) { return *p; }");
  sendAll(A, Req);
  std::string First = recvLines(A, 1);
  EXPECT_NE(First.find("\"ok\":true"), std::string::npos);

  sendAll(B, "{\"id\":9,\"method\":\"invalidate\"}\n");
  std::string Inv = recvLines(B, 1);
  EXPECT_NE(Inv.find("\"dropped\":1"), std::string::npos);

  sendAll(A, Req); // Recomputed after the drop: bytes must not change.
  EXPECT_EQ(recvLines(A, 1), First);

  ::close(A);
  ::close(B);
}

TEST(Transport, ShutdownOnOneConnectionDrainsTheOthers) {
  ServerConfig Config;
  Config.Jobs = 2;
  LiveServer L(Config);
  ASSERT_TRUE(L.Opened);
  int A = L.connect(), B = L.connect();
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);

  // A has served traffic and sits idle mid-connection.
  sendAll(A, analyzeLine(1, "int sd(int *p) { return *p; }"));
  std::string AResp = recvLines(A, 1);
  EXPECT_NE(AResp.find("\"ok\":true"), std::string::npos);

  // B asks the daemon to shut down: B gets its reply, the transport stops
  // accepting and winds A down; A sees clean EOF, nothing truncated.
  sendAll(B, "{\"id\":2,\"method\":\"shutdown\"}\n");
  EXPECT_EQ(recvLines(B, 1), "{\"id\":2,\"ok\":true}\n");

  EXPECT_EQ(recvAll(A), ""); // EOF, no stray bytes.
  ::close(A);
  ::close(B);
  L.join();
  EXPECT_EQ(L.ExitCode, 0);
  EXPECT_TRUE(L.S.shutdownRequested());
  // New connections are refused once serve() returned.
  EXPECT_LT(L.connect(), 0);
}

TEST(Transport, HostileSocketInputNeverKillsTheServer) {
  // The stdio hardening expectations, carried onto the wire: an oversized
  // line and garbage bytes each get an error response on their own
  // connection, and service continues for everyone.
  ServerConfig Config;
  Config.ProtoLim.MaxRequestBytes = 256;
  LiveServer L(Config);
  ASSERT_TRUE(L.Opened);

  {
    int Fd = L.connect();
    ASSERT_GE(Fd, 0);
    sendAll(Fd, std::string(4096, 'x') + "\n");
    std::string R = recvLines(Fd, 1);
    EXPECT_NE(R.find("request exceeds byte limit"), std::string::npos);
    ::close(Fd); // Abrupt close, response possibly unread by the peer.
  }
  {
    int Fd = L.connect();
    ASSERT_GE(Fd, 0);
    sendAll(Fd, "\x01\x02{{{garbage\n");
    std::string R = recvLines(Fd, 1);
    EXPECT_NE(R.find("\"ok\":false"), std::string::npos);
    // Half-closed connection: the write side is done, reads still drain.
    sendAll(Fd, "{\"id\":7,\"method\":\"stats\"}\n");
    ::shutdown(Fd, SHUT_WR);
    std::string Rest = recvAll(Fd);
    EXPECT_NE(Rest.find("{\"id\":7,\"ok\":true"), std::string::npos);
    ::close(Fd);
  }
  // The server is still healthy for a fresh client.
  int Fd = L.connect();
  ASSERT_GE(Fd, 0);
  sendAll(Fd, "{\"id\":8,\"method\":\"stats\"}\n");
  EXPECT_NE(recvLines(Fd, 1).find("{\"id\":8,\"ok\":true"),
            std::string::npos);
  ::close(Fd);
}
