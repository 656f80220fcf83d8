#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

/// The launcher's failure paths, driven through tests/launcher_fault_node.sh
/// as --node-bin: it breaks one node's handshake and runs the real daemon
/// for every other start.
class LauncherFailures : public ::testing::Test {
 protected:
  void SetUp() override {
    // Daemons the launcher leaves behind are re-parented to this process,
    // so after the launcher is reaped, any child at all is a leftover.
    ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    std::string pattern = ::testing::TempDir() + "launcher.XXXXXX";
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr);
    dir_ = pattern;
  }
  void TearDown() override { fs::remove_all(dir_); }

  struct Run {
    int status = -1;  // the launcher's exit status
    std::string out;
    std::string err;
  };

  /// Runs an 8-node, 1 s launch with node 3's handshake broken in `mode`.
  Run launch(const char* mode) const {
    std::ostringstream cmd;
    cmd << "LIFTING_FAULT_NODE=3 LIFTING_FAULT_MODE=" << mode
        << " LIFTING_FAULT_DIR='" << dir_.string() << "'"
        << " LIFTING_REAL_NODE='" << LIFTING_NODE_BIN << "' '"
        << LIFTING_LOOPBACK_BIN << "' --nodes 8 --seconds 1 --health-min 0"
        << " --node-bin '" << LIFTING_FAULT_NODE_SH << "' > '"
        << (dir_ / "out").string() << "' 2> '" << (dir_ / "err").string()
        << "'";
    Run run;
    const int raw = std::system(cmd.str().c_str());
    if (raw != -1 && WIFEXITED(raw)) run.status = WEXITSTATUS(raw);
    run.out = slurp(dir_ / "out");
    run.err = slurp(dir_ / "err");
    return run;
  }

  /// Daemons started during the launch (one per pid.<pid> marker).
  std::vector<pid_t> started() const {
    std::vector<pid_t> pids;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("pid.", 0) == 0) {
        pids.push_back(static_cast<pid_t>(std::stol(name.substr(4))));
      }
    }
    return pids;
  }

  /// Checks that the launcher reaped every daemon it started: none was
  /// left to this subreaper, running or exited. Kills any leftover.
  void expect_no_leftover_daemon() const {
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a daemon outlived the launcher";
    for (const pid_t pid : started()) {
      if (::kill(pid, 0) == 0) {
        ADD_FAILURE() << "daemon " << pid << " is still running";
        ::kill(pid, SIGKILL);
      }
    }
    while (::waitpid(-1, nullptr, 0) > 0) {
    }
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }

  fs::path dir_;
};

TEST_F(LauncherFailures, OneFailedHandshakeIsRetriedAndTheRunGoesOn) {
  const Run run = launch("once");
  EXPECT_NE(run.err.find("node 3: launch failed, retrying once"),
            std::string::npos)
      << run.err;
  EXPECT_NE(run.out.find("8 nodes launched"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("== wire bandwidth report"), std::string::npos)
      << run.out;
  EXPECT_EQ(started().size(), 9u);  // 8 daemons and the retried one
  expect_no_leftover_daemon();
}

TEST_F(LauncherFailures, TwoFailedHandshakesEndTheLaunchAndKillEveryDaemon) {
  const Run run = launch("always");
  EXPECT_EQ(run.status, 1) << run.err;
  EXPECT_NE(run.err.find("node 3: launch failed, retrying once"),
            std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("failed to launch node 3"), std::string::npos)
      << run.err;
  EXPECT_EQ(run.out.find("nodes launched"), std::string::npos) << run.out;
  expect_no_leftover_daemon();
}

}  // namespace
