// perfbench_client - drives one reasched_service daemon over a stdin/stdout
// pipe pair and records when every request was due, written and answered.
//
//   perfbench_client --requests FILE --out PREFIX -- DAEMON [ARGS...]
//
// FILE holds one request per line as "<due_us>\t<json>":
//   due_us >= 0  due that many microseconds after the first response (the
//                setup probe) arrived; sent as soon as it is due and the
//                pipe accepts it (0 = as fast as the pipe accepts).
//   due_us <  0  a barrier: sent only once every earlier request has been
//                answered (closed loop), and due at that moment.
// The first line is the setup probe and is sent right after the spawn.
//
// Writes PREFIX.resp (the daemon's stdout, verbatim), PREFIX.times (one
// "due_ns written_ns answered_ns" line per request, relative to the spawn)
// and PREFIX.json (setup time, wait4 usage, read-call count, calibration
// time, exit status). Exits non-zero when the daemon cannot be driven to
// completion or falls silent for kTimeoutS seconds.
//
// Calibration: right before the spawn and right after the daemon exits, on
// the CPU the daemon runs on, the client times a fixed CPU workload that
// shares no code with the daemon (calibrate() below). run.py divides the
// run's timings by the median of these times, so that slow drifts in the
// host's speed cancel out while a slower daemon still reads slower.
//
// One process, one daemon, one pipe pair, no threads: the loop below is the
// only poller.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

extern char** environ;

namespace {

constexpr double kTimeoutS = 60.0;  // longest silence before the daemon counts as hung
constexpr int kCalPasses = 2;       // calibration passes before and after the session

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

volatile std::uint64_t g_cal_sink = 0;  // keeps the calibration work alive

/// One calibration pass: hashing, sorting and number formatting over about
/// 0.5 MB, the daemon's kind of work, in code of its own. Returns the pass's
/// thread CPU time in seconds.
double calibrate() {
  const std::int64_t t0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t x = 88172645463325252ull;
  std::vector<std::uint64_t> v(1 << 14);
  for (std::uint64_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (const std::uint64_t e : v) m[e & 0xffff] += e;
  std::sort(v.begin(), v.end());
  std::uint64_t sink = m.size();
  char buf[32];
  for (std::size_t i = 0; i < v.size(); i += 2) {
    sink += static_cast<std::uint64_t>(
        std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v[i]) * 1e-9));
  }
  g_cal_sink = g_cal_sink + sink;
  return static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e-9;
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_client: %s\n", message.c_str());
  std::exit(2);
}

struct Request {
  std::int64_t due_us = 0;  // < 0: barrier
  std::size_t end = 0;      // end of its "json\n" in the send buffer
};

struct Options {
  std::string requests;
  std::string out;
  std::vector<std::string> daemon;
};

Options parse_args(int argc, char** argv) {
  Options o;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      ++i;
      break;
    }
    if (i + 1 >= argc) die("missing value for " + a);
    if (a == "--requests") {
      o.requests = argv[++i];
    } else if (a == "--out") {
      o.out = argv[++i];
    } else {
      die("unknown option " + a);
    }
  }
  for (; i < argc; ++i) o.daemon.emplace_back(argv[i]);
  if (o.requests.empty() || o.out.empty() || o.daemon.empty()) {
    die("usage: perfbench_client --requests FILE --out PREFIX -- DAEMON [ARGS...]");
  }
  return o;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) die("fcntl failed");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  signal(SIGPIPE, SIG_IGN);
  // Wake-ups for due requests should be as punctual as the kernel allows.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::string sendbuf;
  std::vector<Request> reqs;
  {
    std::ifstream in(opt.requests);
    if (!in) die("cannot read " + opt.requests);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) die("request line without a due column");
      Request r;
      r.due_us = std::strtoll(line.c_str(), nullptr, 10);
      sendbuf.append(line, tab + 1, std::string::npos);
      sendbuf.push_back('\n');
      r.end = sendbuf.size();
      reqs.push_back(r);
    }
  }
  if (reqs.empty()) die("no requests");
  const std::size_t n = reqs.size();

  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
  const std::string err_path = opt.out + ".stderr";
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
    posix_spawn_file_actions_addclose(&actions, fd);
  }
  std::vector<char*> child_argv;
  for (const std::string& s : opt.daemon) child_argv.push_back(const_cast<char*>(s.c_str()));
  child_argv.push_back(nullptr);

  // Daemon and client each get a CPU of their own (the last two allowed),
  // so neither migrates nor competes with the other: the daemon inherits
  // the mask set before the spawn, the client moves away after it.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const bool pin = cpus.size() >= 2;
  const auto pin_to = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  };
  if (pin) pin_to(cpus[cpus.size() - 1]);
  std::vector<double> cal;
  for (int k = 0; k < kCalPasses; ++k) cal.push_back(calibrate());

  const std::int64_t t_spawn = now_ns();
  pid_t pid = 0;
  const int spawn_rc =
      posix_spawnp(&pid, child_argv[0], &actions, nullptr, child_argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawn_rc != 0) die("cannot start " + opt.daemon[0] + ": " + std::strerror(spawn_rc));
  if (pin) pin_to(cpus[cpus.size() - 2]);
  close(to_child[0]);
  close(from_child[1]);
  const int wfd = to_child[1];
  const int rfd = from_child[0];
  set_nonblocking(wfd);
  set_nonblocking(rfd);

  std::vector<std::int64_t> due(n, -1), written(n, -1), answered(n, -1);
  std::string respbuf;
  respbuf.reserve(1 << 20);
  std::size_t next_send = 0;   // next request not yet queued for writing
  std::size_t sent_bytes = 0;  // bytes of sendbuf written so far
  std::size_t queued_end = 0;  // end of the bytes queued for writing
  std::size_t next_written = 0;
  std::size_t n_answered = 0;
  std::size_t read_calls = 0;  // read() calls that returned data
  std::int64_t t_base = -1;    // due-time origin: the setup probe's answer
  std::int64_t last_progress = t_spawn;
  const auto timeout_ns = static_cast<std::int64_t>(kTimeoutS * 1e9);
  bool failed = false;
  std::string failure;

  char chunk[1 << 16];
  while (n_answered < n) {
    std::int64_t now = now_ns();
    // Queue every request that is due: the probe at once, then due-time
    // lines after the probe's answer, barriers once all before are answered.
    while (next_send < n) {
      const Request& r = reqs[next_send];
      std::int64_t d = -1;
      if (next_send == 0) {
        d = t_spawn;
      } else if (t_base < 0) {
        break;
      } else if (r.due_us < 0) {
        if (n_answered < next_send) break;
        d = now;
      } else {
        d = t_base + r.due_us * 1000;
        if (d > now) break;
      }
      due[next_send] = d;
      queued_end = r.end;
      ++next_send;
    }
    if (sent_bytes < queued_end) {
      const ssize_t w = write(wfd, sendbuf.data() + sent_bytes, queued_end - sent_bytes);
      if (w > 0) {
        sent_bytes += static_cast<std::size_t>(w);
        now = now_ns();
        while (next_written < next_send && reqs[next_written].end <= sent_bytes) {
          written[next_written++] = now;
        }
      } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
        failed = true;
        failure = std::string("write to daemon failed: ") + std::strerror(errno);
        break;
      }
    }

    // Wait for output, for the pipe to take more input, or for the next due
    // time - whichever comes first.
    pollfd fds[2] = {{rfd, POLLIN, 0}, {wfd, POLLOUT, 0}};
    const nfds_t nfds = sent_bytes < queued_end ? 2 : 1;
    std::int64_t wait_ns = 50'000'000;
    if (next_send < n && t_base >= 0 && reqs[next_send].due_us >= 0) {
      wait_ns = std::max<std::int64_t>(0, t_base + reqs[next_send].due_us * 1000 - now);
      wait_ns = std::min<std::int64_t>(wait_ns, 50'000'000);
    }
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int pr = ppoll(fds, nfds, &ts, nullptr);
    if (pr < 0 && errno != EINTR) die("ppoll failed");
    if (pr > 0 && (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t r = read(rfd, chunk, sizeof chunk);
      if (r > 0) {
        ++read_calls;
        const std::int64_t t = now_ns();
        last_progress = t;
        for (ssize_t k = 0; k < r; ++k) {
          if (chunk[k] == '\n') {
            if (n_answered < n) answered[n_answered] = t;
            ++n_answered;
            if (n_answered == 1) t_base = t;
          }
        }
        respbuf.append(chunk, static_cast<std::size_t>(r));
      } else if (r == 0) {
        failed = true;
        failure = "daemon closed its output after " + std::to_string(n_answered) + " of " +
                  std::to_string(n) + " responses";
        break;
      }
    }
    if (now_ns() - last_progress > timeout_ns) {
      failed = true;
      failure = "no response for " + std::to_string(kTimeoutS) + " s";
      break;
    }
  }
  close(wfd);
  if (failed) kill(pid, SIGKILL);
  // Read anything left so the daemon never blocks on a full pipe at exit.
  for (;;) {
    pollfd fd{rfd, POLLIN, 0};
    if (poll(&fd, 1, 5000) <= 0) break;
    const ssize_t r = read(rfd, chunk, sizeof chunk);
    if (r <= 0) break;
    respbuf.append(chunk, static_cast<std::size_t>(r));
  }
  close(rfd);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) die("wait4 failed");
  }
  if (pin) pin_to(cpus[cpus.size() - 1]);
  for (int k = 0; k < kCalPasses; ++k) cal.push_back(calibrate());
  std::sort(cal.begin(), cal.end());
  const double cal_s = (cal[cal.size() / 2 - 1] + cal[cal.size() / 2]) / 2;

  {
    std::ofstream f(opt.out + ".resp", std::ios::binary);
    f << respbuf;
  }
  {
    std::ofstream f(opt.out + ".times");
    for (std::size_t i = 0; i < n; ++i) {
      f << (due[i] < 0 ? -1 : due[i] - t_spawn) << ' '
        << (written[i] < 0 ? -1 : written[i] - t_spawn) << ' '
        << (answered[i] < 0 ? -1 : answered[i] - t_spawn) << '\n';
    }
  }
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  std::ostringstream js;
  js.precision(9);
  const double setup_s =
      answered[0] < 0 ? -1.0 : static_cast<double>(answered[0] - t_spawn) * 1e-9;
  js << "{\"setup_s\":" << setup_s << ",\"user_s\":" << secs(usage.ru_utime)
     << ",\"sys_s\":" << secs(usage.ru_stime) << ",\"maxrss_kb\":" << usage.ru_maxrss
     << ",\"read_calls\":" << read_calls << ",\"cal_s\":" << cal_s << ",\"responses\":" << n_answered
     << ",\"exit_code\":" << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
     << ",\"failure\":\"" << failure << "\"}\n";
  std::ofstream(opt.out + ".json") << js.str();
  if (failed) {
    std::fprintf(stderr, "perfbench_client: %s\n", failure.c_str());
    return 1;
  }
  return 0;
}
