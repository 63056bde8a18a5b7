#include "whatif/fork.h"

#include <poll.h>
#include <sched.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>


namespace hybridmr::whatif {

namespace {

// A lookahead child that outlives its horizon (the driver's run_until
// window ended first) unwinds into driver code it must never execute —
// most of which ends in a normal exit() that would report success for a
// run that never happened. The backstop turns that escape into a loud
// failure; _Exit skips the remaining handlers and any atexit side effects.
void escape_backstop() { std::_Exit(98); }

void write_all(int fd, const std::string& payload) {
  const char* p = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // reader died; the parent will see a failed child anyway
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

/// One child of a running batch.
struct LiveChild {
  pid_t pid;
  int fd;             ///< read end of its pipe; -1 once reaped
  std::size_t index;  ///< its batch entry
};

/// CPUs in this process's sched_getaffinity mask (at least 1).
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace

bool WhatIfEngine::reap(int pid, bool read_ok) {
  int status = 0;
  pid_t got = ::waitpid(pid, &status, 0);
  while (got < 0 && errno == EINTR) got = ::waitpid(pid, &status, 0);
  // A failed waitpid (ECHILD when the program ignores SIGCHLD) leaves
  // `status` unset: the exit status is unknown, so the child failed.
  const bool ok = read_ok && got == pid && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  if (!ok) ++stats_.child_failures;
  return ok;
}

// Common child half, run immediately after fork() returns 0.
void WhatIfEngine::enter_child(int read_fd) {
  ::close(read_fd);
  in_lookahead_ = true;
  std::atexit(&escape_backstop);
}

std::optional<WhatIfEngine::Child> WhatIfEngine::fork_batch(
    std::size_t n, std::vector<ForkResult>& results) {
  results.assign(n, ForkResult{});
  if (in_lookahead_) return std::nullopt;  // children never fork again
  const int max_children = options_.max_children > 0 ? options_.max_children
                                                     : available_cpus();
  const auto slots = std::min(n, static_cast<std::size_t>(max_children));
  std::vector<LiveChild> live;
  std::vector<pollfd> ready;
  live.reserve(slots);
  ready.reserve(slots);
  std::size_t next = 0;
  while (true) {
    // Fork into every free slot. A failed pipe or fork leaves that entry
    // ok=false and moves on.
    for (; next < n && live.size() < slots; ++next) {
      int fds[2] = {-1, -1};
      if (::pipe(fds) != 0) continue;
      // Flush stdio so buffered output is not duplicated into the child.
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        continue;
      }
      if (pid == 0) {
        // Siblings' read ends are the parent's business alone.
        for (const LiveChild& sibling : live) ::close(sibling.fd);
        enter_child(fds[0]);
        return Child{next, fds[1]};
      }
      ::close(fds[1]);
      ++stats_.forks;
      live.push_back({pid, fds[0], next});
    }
    if (live.empty()) return std::nullopt;

    // Drain every live pipe as data arrives and reap only at EOF: a child
    // with more than a pipe buffer of payload blocks in write() until the
    // parent reads, so reaping first would deadlock and reading one child
    // to EOF first would hold its siblings idle.
    ready.clear();
    for (const LiveChild& c : live) ready.push_back({c.fd, POLLIN, 0});
    if (::poll(ready.data(), ready.size(), -1) < 0) {
      if (errno == EINTR) continue;
      // Children never wait on each other, so a blocking read of the
      // oldest one always makes progress.
      ready.front().revents = POLLIN;
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (ready[i].revents == 0) continue;
      LiveChild& c = live[i];
      char buf[1 << 16];
      const ssize_t got = ::read(c.fd, buf, sizeof(buf));
      if (got > 0) {
        results[c.index].payload.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      // EOF, or a read error that truncated the payload: reap the child.
      ::close(c.fd);
      c.fd = -1;
      results[c.index].ok = reap(c.pid, /*read_ok=*/got == 0);
    }
    std::erase_if(live, [](const LiveChild& c) { return c.fd < 0; });
  }
}

std::vector<ForkResult> WhatIfEngine::run_isolated(
    std::span<const Scenario> scenarios) {
  assert(!sim_.running() &&
         "run_isolated() inside run() — use lookahead_in_event()");
  std::vector<ForkResult> results;
  if (const auto child = fork_batch(scenarios.size(), results)) {
    write_all(child->write_fd, scenarios[child->index]());
    ::close(child->write_fd);
    // _exit, not exit: the child shares the parent's atexit stack and
    // stdio, and under ASan must skip the leak check (a forked scenario
    // leaks the whole engine by design).
    ::_exit(0);
  }
  return results;
}

ForkResult WhatIfEngine::run_isolated(const Scenario& scenario) {
  return run_isolated(std::span<const Scenario>(&scenario, 1)).front();
}

WhatIfEngine::Lookahead WhatIfEngine::lookahead_in_event(
    std::span<const Candidate> candidates, sim::Duration horizon,
    const Scenario& score) {
  assert(horizon.value() >= 0 && "negative lookahead horizon");
  Lookahead out;
  const auto child = fork_batch(candidates.size(), out.results);
  if (!child) return out;
  candidates[child->index]();
  // The score event both bounds the lookahead and keeps the child's
  // queue non-empty until then; its handler never returns. The caller
  // must now unwind out of the current event handler so the child's
  // event loop can run the horizon down.
  sim_.after(horizon, [fd = child->write_fd, score]() {
    write_all(fd, score());
    ::_exit(0);
  });
  return Lookahead{/*is_child=*/true, {}};
}

}  // namespace hybridmr::whatif
