/**
 * @file
 * Tests of the ibpd wire protocol: frame round-trips, torn and
 * oversized frames, run-request serialisation, and socket path
 * resolution (serve/protocol.hh).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"

namespace ibp {
namespace {

class FramePipe
{
  public:
    FramePipe() { ::socketpair(AF_UNIX, SOCK_STREAM, 0, _fds); }
    ~FramePipe()
    {
        closeA();
        closeB();
    }
    int a() const { return _fds[0]; }
    int b() const { return _fds[1]; }
    void
    closeA()
    {
        if (_fds[0] >= 0)
            ::close(_fds[0]);
        _fds[0] = -1;
    }
    void
    closeB()
    {
        if (_fds[1] >= 0)
            ::close(_fds[1]);
        _fds[1] = -1;
    }

  private:
    int _fds[2] = {-1, -1};
};

TEST(ServeProtocolTest, FrameRoundTrip)
{
    FramePipe pipe;
    Json message = Json::object();
    message.set("type", "probe");
    message.set("value", 42);
    message.set("nested", Json::array());
    ASSERT_TRUE(writeFrame(pipe.a(), message).ok());

    auto read_back = readFrame(pipe.b());
    ASSERT_TRUE(read_back.ok());
    EXPECT_EQ(read_back.value().dump(), message.dump());
}

TEST(ServeProtocolTest, SequentialFramesStayDelimited)
{
    FramePipe pipe;
    for (int i = 0; i < 3; ++i) {
        Json message = Json::object();
        message.set("index", i);
        ASSERT_TRUE(writeFrame(pipe.a(), message).ok());
    }
    for (int i = 0; i < 3; ++i) {
        auto frame = readFrame(pipe.b());
        ASSERT_TRUE(frame.ok());
        EXPECT_EQ(frame.value().numberOr("index", -1), i);
    }
}

TEST(ServeProtocolTest, TornFrameIsTransient)
{
    FramePipe pipe;
    // Length prefix promises 10 bytes; deliver 3 and hang up.
    const unsigned char partial[] = {10, 0, 0, 0, 'a', 'b', 'c'};
    ASSERT_EQ(::send(pipe.a(), partial, sizeof(partial), 0),
              static_cast<ssize_t>(sizeof(partial)));
    pipe.closeA();

    auto frame = readFrame(pipe.b());
    ASSERT_FALSE(frame.ok());
    EXPECT_TRUE(frame.error().retryable());
    EXPECT_NE(frame.error().message.find("mid-frame"),
              std::string::npos);
}

TEST(ServeProtocolTest, OversizedLengthRejectedBeforeAllocation)
{
    FramePipe pipe;
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(pipe.a(), huge, sizeof(huge), 0), 4);

    auto frame = readFrame(pipe.b());
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.error().message.find("ceiling"),
              std::string::npos);
}

TEST(ServeProtocolTest, MalformedJsonIsTransient)
{
    FramePipe pipe;
    const unsigned char bogus[] = {3, 0, 0, 0, '{', '{', '{'};
    ASSERT_EQ(::send(pipe.a(), bogus, sizeof(bogus), 0),
              static_cast<ssize_t>(sizeof(bogus)));

    auto frame = readFrame(pipe.b());
    ASSERT_FALSE(frame.ok());
    EXPECT_TRUE(frame.error().retryable());
    EXPECT_NE(frame.error().message.find("malformed"),
              std::string::npos);
}

TEST(ServeProtocolTest, RunRequestRoundTrips)
{
    RunRequest request = makeRunRequest("fig02", true);
    request.priority = 2;
    request.rejects = 3;

    auto parsed = RunRequest::fromJson(request.toJson());
    ASSERT_TRUE(parsed.ok());
    const RunRequest &back = parsed.value();
    EXPECT_EQ(back.slug, "fig02");
    EXPECT_TRUE(back.quick);
    EXPECT_EQ(back.priority, 2);
    EXPECT_EQ(back.rejects, 3u);
    EXPECT_EQ(back.eventScale, request.eventScale);
    EXPECT_EQ(back.threads, request.threads);
    EXPECT_EQ(back.gitSha, request.gitSha);
}

TEST(ServeProtocolTest, SignatureSeparatesQuickFromFull)
{
    EXPECT_EQ(makeRunRequest("fig02", false).signature(),
              makeRunRequest("fig02", false).signature());
    EXPECT_NE(makeRunRequest("fig02", false).signature(),
              makeRunRequest("fig02", true).signature());
    EXPECT_NE(makeRunRequest("fig02", false).signature(),
              makeRunRequest("fig05", false).signature());
    // Priority and ridden-out rejections must NOT split coalescing.
    RunRequest a = makeRunRequest("fig02", false);
    RunRequest b = a;
    b.priority = 9;
    b.rejects = 4;
    EXPECT_EQ(a.signature(), b.signature());
}

TEST(ServeProtocolTest, RunRequestWithoutSlugIsRejected)
{
    Json bare = Json::object();
    bare.set("type", "run");
    EXPECT_FALSE(RunRequest::fromJson(bare).ok());
}

TEST(ServeProtocolTest, SocketPathResolutionOrder)
{
    const char *saved = std::getenv("IBP_DAEMON");
    const std::string restore = saved ? saved : "";

    unsetenv("IBP_DAEMON");
    EXPECT_EQ(daemonSocketPath(), kDefaultDaemonSocket);
    setenv("IBP_DAEMON", "/tmp/env.sock", 1);
    EXPECT_EQ(daemonSocketPath(), "/tmp/env.sock");
    EXPECT_EQ(daemonSocketPath("/tmp/flag.sock"), "/tmp/flag.sock");

    if (saved)
        setenv("IBP_DAEMON", restore.c_str(), 1);
    else
        unsetenv("IBP_DAEMON");
}

TEST(ServeProtocolTest, ConnectWithoutDaemonIsTransientNoDaemon)
{
    auto fd = connectDaemon("/tmp/ibp-no-such-daemon.sock");
    ASSERT_FALSE(fd.ok());
    EXPECT_TRUE(fd.error().retryable());
    EXPECT_EQ(fd.error().message.rfind("no daemon", 0), 0u);
}

TEST(ServeProtocolTest, ListenReplacesStaleSocketRefusesLive)
{
    char dir_template[] = "/tmp/ibpprotoXXXXXX";
    ASSERT_NE(::mkdtemp(dir_template), nullptr);
    const std::string path = std::string(dir_template) + "/d.sock";

    auto first = listenDaemon(path);
    ASSERT_TRUE(first.ok());

    // A live listener on the path must be refused...
    auto conflict = listenDaemon(path);
    ASSERT_FALSE(conflict.ok());
    EXPECT_NE(conflict.error().message.find("already listening"),
              std::string::npos);

    // ...but a stale socket file (dead daemon) is replaced.
    ::close(first.value());
    auto second = listenDaemon(path);
    ASSERT_TRUE(second.ok());
    ::close(second.value());
    ::unlink(path.c_str());
    ::rmdir(dir_template);
}

} // namespace
} // namespace ibp
