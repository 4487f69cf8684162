// perfbench_replay - in-process replay of the request streams the pipe
// client sends to reasched_service: the reference the daemon's outputs are
// checked against, and the traced run the per-layer numbers come from.
//
//   perfbench_replay span [--submits FILE] DAEMON-FLAGS
//       print the stream's last arrival time and job count (for advance
//       slicing); with --submits, also write every job of the stream to
//       FILE as a `submit` request line, in arrival order
//   perfbench_replay run --requests FILE --out PREFIX [--repeat N] [--traced] DAEMON-FLAGS
//
// DAEMON-FLAGS are the reasched_service flags the session is started with
// (--method --seed --scenario --batch-jobs --batches --rate-scale --restore
// --runlog-out). FILE is the pipe client's request file ("<due>\t<json>").
//
// `run` replays FILE N times through service::run_service_loop (the loop the
// daemon runs, minus the pipe) and writes the last replay's responses
// (PREFIX.resp) and decision trace (PREFIX.trace). With --traced it then
// replays FILE once more, calling the protocol, ServiceEngine, snapshot and
// renderer functions one by one with a span around each call; the scheduler
// (through a wrapper method registered with MethodRegistry::add), the
// agent's LLM client and the run-log sink are wrapped the same way. Spans
// are kept in memory and written to PREFIX.spans at the end. PREFIX.json
// holds the walls, counters and equality checks. No code under src/ is
// changed: every layer is measured from outside, through its public API.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/agent_config.hpp"
#include "core/react_agent.hpp"
#include "harness/method_spec.hpp"
#include "llm/model_profile.hpp"
#include "llm/simulated_reasoner.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/runlog.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/service_engine.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "workload/arrival_stream.hpp"
#include "workload/scenario_spec.hpp"

namespace {

using namespace reasched;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans --

enum SpanName : std::uint8_t {
  kInit,
  kParse,
  kRender,
  kSubmit,
  kQuery,
  kCancel,
  kAdvance,
  kDrain,
  kCheckpoint,
  kStats,
  kSave,
  kRestore,
  kSchedDecide,
  kOptDecide,
  kAgentDecide,
  kLlmComplete,
  kRunlogAppend,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "service_engine.init", "protocol.parse",     "protocol.render",
    "service_engine.submit", "service_engine.query", "service_engine.cancel",
    "service_engine.advance", "service_engine.drain", "service_engine.checkpoint",
    "service_engine.stats", "snapshot.save",     "snapshot.restore",
    "sched.decide",         "opt.decide",        "agent.decide",
    "llm.complete",         "runlog.append",
};

/// The layer a span belongs to: its name up to the first dot.
std::string layer_of(SpanName name) {
  const std::string full = kSpanNames[name];
  return full.substr(0, full.find('.'));
}

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t request = 0;
  SpanName name = kInit;
};

/// In-memory span store: one thread, a stack of open spans for parent links.
class SpanLog {
 public:
  bool on = false;
  std::uint32_t request = 0;  ///< id (line index) of the request being handled

  std::int32_t open(SpanName name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, stack_.empty() ? -1 : stack_.back(), request, name});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    for (const Span& s : spans_) {
      f << kSpanNames[s.name] << '\t' << s.start << '\t' << s.end << '\t' << s.parent << '\t'
        << s.request << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

SpanLog g_spans;

class Scope {
 public:
  explicit Scope(SpanName name) : idx_(g_spans.on ? g_spans.open(name) : -1) {}
  ~Scope() {
    if (idx_ >= 0) g_spans.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t idx_;
};

/// Counts gathered by the wrappers (single-threaded: the engine is).
struct Counters {
  std::uint64_t decisions = 0;
  std::uint64_t accepted = 0;
  std::uint64_t peak_waiting = 0;
  std::uint64_t llm_calls = 0;
  std::uint64_t prompt_bytes = 0;
  std::uint64_t scratchpad_entries = 0;
  std::uint64_t prompt_tokens = 0;
  std::uint64_t completion_tokens = 0;
  double simulated_latency_s = 0.0;
  std::uint64_t runlog_rows = 0;
  SpanName decide_layer = kSchedDecide;  ///< which layer the session's method is
};

Counters g_counters;

// ------------------------------------------------------------- wrappers --

/// Forwards every call to the wrapped method; times decide() and counts
/// decisions and acceptances.
class TracedScheduler final : public sim::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<sim::Scheduler> inner, SpanName decide_span)
      : inner_(std::move(inner)), decide_span_(decide_span) {
    g_counters.decide_layer = decide_span;
  }

  sim::Action decide(const sim::DecisionContext& ctx) override {
    ++g_counters.decisions;
    g_counters.peak_waiting =
        std::max<std::uint64_t>(g_counters.peak_waiting, ctx.waiting.size());
    const Scope span(decide_span_);
    return inner_->decide(ctx);
  }
  void on_feedback(const std::string& feedback, const sim::DecisionContext& ctx) override {
    inner_->on_feedback(feedback, ctx);
  }
  void on_accepted(const sim::Action& action, const sim::DecisionContext& ctx) override {
    ++g_counters.accepted;
    inner_->on_accepted(action, ctx);
  }
  std::string last_thought() const override { return inner_->last_thought(); }
  std::string name() const override { return inner_->name(); }
  std::vector<std::pair<std::string, double>> obs_counters() const override {
    return inner_->obs_counters();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  SpanName decide_span_;
};

/// Forwards to the agent's SimulatedReasoner; times complete() and counts
/// what crossed the client boundary.
class TracedClient final : public llm::Client {
 public:
  explicit TracedClient(std::shared_ptr<llm::Client> inner) : inner_(std::move(inner)) {}

  llm::Response complete(const llm::Request& request) override {
    ++g_counters.llm_calls;
    g_counters.prompt_bytes += request.prompt.size();
    if (request.context != nullptr) {
      g_counters.scratchpad_entries += request.context->scratchpad_entries;
    }
    llm::Response response;
    {
      const Scope span(kLlmComplete);
      response = inner_->complete(request);
    }
    g_counters.prompt_tokens += static_cast<std::uint64_t>(response.prompt_tokens);
    g_counters.completion_tokens += static_cast<std::uint64_t>(response.completion_tokens);
    g_counters.simulated_latency_s += response.latency_seconds;
    return response;
  }
  std::string model_name() const override { return inner_->model_name(); }
  void reset() override { inner_->reset(); }

 private:
  std::shared_ptr<llm::Client> inner_;
};

/// Forwards to the file sink the daemon would use; times each row.
class TracedSink final : public obs::RunLogSink {
 public:
  explicit TracedSink(std::unique_ptr<obs::RunLogSink> inner) : inner_(std::move(inner)) {}
  bool open(const std::vector<std::string>& columns) override { return inner_->open(columns); }
  bool append(const std::vector<std::string>& values) override {
    ++g_counters.runlog_rows;
    const Scope span(kRunlogAppend);
    return inner_->append(values);
  }
  bool flush() override { return inner_->flush(); }

 private:
  std::unique_ptr<obs::RunLogSink> inner_;
};

constexpr const char* kTracedMethod = "perfbench:traced";
/// The traced run writes (and restores) its checkpoint beside the path the
/// request names, so the untraced reference checkpoint stays intact.
constexpr const char* kTracedSuffix = ".traced";

/// The agent's configuration from its spec, read with the registry's own
/// ParamReader. `window=auto` expands to the registered trace-scale default
/// (arrival:32); the traced run's decision-trace digest must equal the
/// untraced run's, which catches any drift from the registered build function.
core::AgentConfig agent_config(const harness::MethodSpec& spec, std::uint64_t seed) {
  const harness::ParamReader params(spec);
  core::AgentConfig config;
  config.scratchpad_enabled = params.get_bool("scratchpad", config.scratchpad_enabled);
  config.scratchpad_token_budget = static_cast<int>(
      params.get_int("scratchpad_budget", config.scratchpad_token_budget, 0,
                     std::numeric_limits<int>::max()));
  config.objectives_in_prompt = params.get_bool("objectives", config.objectives_in_prompt);
  sim::PlanningWindow auto_window;
  auto_window.top_k = 32;
  auto_window.order = sim::PlanningWindow::Order::kArrival;
  config.window = params.get_window("window", auto_window);
  config.seed = seed;
  return config;
}

std::unique_ptr<sim::Scheduler> build_traced(const harness::MethodSpec& spec,
                                             std::uint64_t seed) {
  const harness::MethodSpec inner = harness::MethodSpec::parse(*spec.find_param("inner"));
  if (inner.name.rfind("agent:", 0) == 0) {
    // The only agent a workload runs; another needs its profile added here.
    if (inner.name != "agent:claude37") {
      throw std::invalid_argument("perfbench_replay: no traced build for " + inner.name);
    }
    const llm::ModelProfile profile = llm::claude37_profile();
    auto client = std::make_shared<TracedClient>(
        std::make_shared<llm::SimulatedReasoner>(profile, seed));
    return std::make_unique<TracedScheduler>(
        std::make_unique<core::ReActAgent>(std::move(client), profile, agent_config(inner, seed)),
        kAgentDecide);
  }
  const SpanName span = inner.name.rfind("opt:", 0) == 0 ? kOptDecide : kSchedDecide;
  return std::make_unique<TracedScheduler>(harness::MethodRegistry::instance().build(inner, seed),
                                           span);
}

void register_traced_method() {
  harness::MethodRegistry::instance().add(
      {.name = kTracedMethod,
       .display_label = "traced",
       .doc = "Forwards to the method named by `inner` and times its decisions.",
       .is_llm = false,
       .params = {{"inner", "spec", "fcfs", "The method to forward to."}},
       .build = build_traced});
}

harness::MethodSpec traced_spec(const harness::MethodSpec& inner) {
  return harness::MethodSpec(kTracedMethod, {{"inner", inner.to_string()}});
}

// -------------------------------------------------------------- helpers --

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// JSON string literal the way util::JsonWriter escapes a plain spec.
std::string quoted(const std::string& s) { return "\"" + s + "\""; }

void replace_all(std::string& text, const std::string& from, const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

service::ServiceConfig config_from(const util::CliArgs& args) {
  service::ServiceConfig config;
  config.method = harness::MethodSpec::parse(args.get("method", "fcfs"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto batch_jobs = static_cast<std::size_t>(args.get_int("batch-jobs", 0));
  if (batch_jobs > 0) {
    config.stream = workload::make_stream_spec(
        args.get("scenario", "hetero_mix"), batch_jobs,
        static_cast<std::size_t>(args.get_int("batches", 1)), args.get_double("rate-scale", 1.0));
  }
  return config;
}

/// Request JSON lines of the pipe client's "<due>\t<json>" file.
std::vector<std::string> read_requests(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t tab = line.find('\t');
    if (tab != std::string::npos) lines.push_back(line.substr(tab + 1));
  }
  return lines;
}

/// Attach the run log --runlog-out asks for, as the daemon does.
std::shared_ptr<obs::RunLog> attach_runlog(service::ServiceEngine& engine,
                                           const util::CliArgs& args, bool traced) {
  if (!args.has("runlog-out")) return nullptr;
  std::unique_ptr<obs::RunLogSink> sink = obs::make_file_sink(args.get("runlog-out", ""));
  if (traced) sink = std::make_unique<TracedSink>(std::move(sink));
  auto runlog = std::make_shared<obs::RunLog>(std::move(sink),
                                              service::ServiceEngine::runlog_columns());
  engine.set_runlog(runlog);
  return runlog;
}

// ---------------------------------------------------------------- span --

int cmd_span(const util::CliArgs& args) {
  const service::ServiceConfig config = config_from(args);
  if (config.stream.batch_jobs == 0 || config.stream.max_batches == 0) {
    std::fprintf(stderr, "perfbench_replay span: needs a finite --batch-jobs stream\n");
    return 1;
  }
  workload::GenerateOptions options;
  options.cluster = workload::effective_cluster(config.stream.scenario, config.engine.cluster);
  workload::ArrivalStream stream(config.stream, util::derive_seed(config.seed, "stream"),
                                 options);
  std::ofstream submits;
  if (args.has("submits")) {
    submits.open(args.get("submits", ""));
    if (!submits) throw std::runtime_error("cannot write " + args.get("submits", ""));
  }
  double last = 0.0;
  std::size_t jobs = 0;
  while (!stream.exhausted()) {
    const sim::Job job = stream.pop();
    last = job.submit_time;
    ++jobs;
    if (submits.is_open()) {
      util::JsonWriter w;
      w.begin_object().kv("op", "submit").key("job");
      service::job_to_json(w, job);
      w.end_object();
      submits << w.str() << '\n';
    }
  }
  std::printf("{\"last_arrival\":%.17g,\"jobs\":%zu}\n", last, jobs);
  return 0;
}

// ----------------------------------------------------------------- run --

struct Untraced {
  std::string responses;
  std::string trace;
  std::vector<double> walls;
};

/// The daemon's loop, in process: restore or construct, then
/// run_service_loop over the request lines.
Untraced run_untraced(const util::CliArgs& args, const std::vector<std::string>& lines,
                      int repeat) {
  std::string input;
  for (const std::string& l : lines) input += l + '\n';
  Untraced out;
  for (int r = 0; r < repeat; ++r) {
    std::istringstream in(input);
    std::ostringstream resp;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<service::ServiceEngine> engine =
        args.has("restore") ? service::load_snapshot(args.get("restore", ""))
                            : std::make_unique<service::ServiceEngine>(config_from(args));
    attach_runlog(*engine, args, false);
    service::run_service_loop(*engine, in, resp);
    out.walls.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    out.responses = resp.str();
    out.trace = service::render_decision_trace(engine->schedule_view());
  }
  return out;
}

struct Traced {
  std::string responses;
  std::string trace;
  double wall = 0.0;
  std::uint64_t parse_errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t engine_steps = 0;
  std::size_t restored_ops = 0;
  std::vector<std::pair<std::string, double>> scheduler_counters;
  std::size_t runlog_dropped = 0;
};

/// The same session, one public call at a time, with a span around each.
Traced run_traced(const util::CliArgs& args, const std::vector<std::string>& lines,
                  const harness::MethodSpec& plain_method) {
  Traced out;
  const harness::MethodSpec wrapped = traced_spec(plain_method);

  g_spans.on = true;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<service::ServiceEngine> engine;
  if (args.has("restore")) {
    // The traced session restores the traced run's checkpoint, whose config
    // names the wrapper method.
    const Scope span(kRestore);
    engine = service::restore_snapshot_text(read_file(args.get("restore", "") + kTracedSuffix));
  } else {
    service::ServiceConfig config = config_from(args);
    config.method = wrapped;
    const Scope span(kInit);
    engine = std::make_unique<service::ServiceEngine>(std::move(config));
  }
  out.restored_ops = engine->ops().size();
  const std::shared_ptr<obs::RunLog> runlog = attach_runlog(*engine, args, true);

  std::string responses;
  for (std::uint32_t rid = 0; rid < lines.size(); ++rid) {
    const std::string& line = lines[rid];
    if (line.empty()) continue;
    g_spans.request = rid;
    service::Request request;
    std::string error;
    {
      const Scope span(kParse);
      try {
        request = service::parse_request(line);
      } catch (const service::ProtocolError& e) {
        error = e.what();
      }
    }
    std::string response;
    bool shutdown = false;
    if (!error.empty()) {
      ++out.parse_errors;
      const Scope span(kRender);
      response = service::render_error(error);
    } else {
      using Op = service::Request::Op;
      // Engine call first (its span), then the renderer (its span); an
      // exception anywhere becomes an error response, as handle_request does.
      try {
        switch (request.op) {
          case Op::kSubmit: {
            sim::JobId id = 0;
            {
              const Scope span(kSubmit);
              id = engine->submit(request.job);
            }
            const Scope span(kRender);
            response = service::render_submit(id);
            break;
          }
          case Op::kQuery: {
            if (request.has_id) {
              sim::JobState state{};
              {
                const Scope span(kQuery);
                state = engine->job_state(request.id);
              }
              const Scope span(kRender);
              response = service::render_job_state(request.id, state);
            } else {
              service::ServiceStatus status;
              {
                const Scope span(kQuery);
                status = engine->status();
              }
              const Scope span(kRender);
              response = service::render_status(status);
            }
            break;
          }
          case Op::kCancel: {
            std::vector<sim::JobId> cancelled;
            {
              const Scope span(kCancel);
              cancelled = engine->cancel(request.id);
            }
            const Scope span(kRender);
            response = service::render_cancel(cancelled);
            break;
          }
          case Op::kAdvance: {
            const std::uint64_t before = engine->status().steps;
            service::ServiceStatus status;
            {
              const Scope span(kAdvance);
              engine->advance_to(request.to);
              status = engine->status();
            }
            out.engine_steps += status.steps - before;
            const Scope span(kRender);
            response = service::render_advance(status);
            break;
          }
          case Op::kDrain: {
            const std::uint64_t before = engine->status().steps;
            service::DrainResult result;
            {
              const Scope span(kDrain);
              result = engine->drain();
            }
            out.engine_steps += engine->status().steps - before;
            const Scope span(kRender);
            response = service::render_drain(result);
            break;
          }
          case Op::kCheckpoint: {
            {
              const Scope span(kSave);
              std::string text = service::snapshot_to_json(*engine);
              write_file(request.path + kTracedSuffix, text + '\n');
            }
            std::uint64_t digest = 0;
            {
              const Scope span(kCheckpoint);
              digest = engine->state_digest();
            }
            const Scope span(kRender);
            response = service::render_checkpoint(request.path, digest);
            break;
          }
          case Op::kStats: {
            {
              const Scope span(kStats);
              engine->publish_obs();
            }
            const Scope span(kRender);
            response = service::render_stats(obs::enabled(),
                                             obs::MetricRegistry::global().snapshot(),
                                             obs::TraceRecorder::global().stats());
            break;
          }
          case Op::kShutdown: {
            shutdown = true;
            const Scope span(kRender);
            response = service::render_shutdown();
            break;
          }
        }
      } catch (const std::exception& e) {
        const Scope span(kRender);
        response = service::render_error(e.what());
      }
      if (response.rfind("{\"ok\":false", 0) == 0) ++out.rejected;
    }
    responses += response;
    responses += '\n';
    if (shutdown) break;
  }
  out.wall = static_cast<double>(now_ns() - t0) * 1e-9;
  g_spans.on = false;

  out.responses = std::move(responses);
  out.trace = service::render_decision_trace(engine->schedule_view());
  out.scheduler_counters = engine->scheduler().obs_counters();
  if (runlog != nullptr) out.runlog_dropped = runlog->dropped();
  engine->set_runlog(nullptr);
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int cmd_run(const util::CliArgs& args) {
  const std::vector<std::string> lines = read_requests(args.get("requests", ""));
  const std::string prefix = args.get("out", "");
  if (prefix.empty()) throw std::runtime_error("run needs --out PREFIX");
  const int repeat = static_cast<int>(std::max<long long>(1, args.get_int("repeat", 1)));
  const bool traced = args.has("traced");

  // The plain method: from the flags, or from the checkpoint being restored.
  harness::MethodSpec method = harness::MethodSpec::parse(args.get("method", "fcfs"));
  if (args.has("restore")) {
    const util::JsonValue doc = util::parse_json(read_file(args.get("restore", "")));
    method = harness::MethodSpec::parse(doc.at("config").at("method").as_string());
  }
  std::string checkpoint_path;
  for (const std::string& line : lines) {
    if (line.find("\"op\":\"checkpoint\"") != std::string::npos) {
      checkpoint_path = service::parse_request(line).path;
    }
  }

  const Untraced ref = run_untraced(args, lines, repeat);
  const std::string checkpoint_text = checkpoint_path.empty() ? "" : read_file(checkpoint_path);
  write_file(prefix + ".resp", ref.responses);
  write_file(prefix + ".trace", ref.trace);

  std::ostringstream js;
  js << "{\"untraced_walls_s\":[";
  for (std::size_t i = 0; i < ref.walls.size(); ++i) {
    js << (i ? "," : "") << json_number(ref.walls[i]);
  }
  js << "],\"trace_digest\":\"" << std::hex << fnv1a(ref.trace) << std::dec << "\"";
  js << ",\"snapshot_bytes\":" << checkpoint_text.size();

  if (traced) {
    const Traced t = run_traced(args, lines, method);
    g_spans.write(prefix + ".spans");
    // The traced checkpoint must equal the untraced one but for the method.
    bool snapshot_equal = true;
    if (!checkpoint_path.empty()) {
      std::string text = read_file(checkpoint_path + kTracedSuffix);
      replace_all(text, quoted(traced_spec(method).to_string()), quoted(method.to_string()));
      snapshot_equal = text == checkpoint_text;
    }
    js << ",\"traced\":{\"wall_s\":" << json_number(t.wall)
       << ",\"responses_equal\":" << (t.responses == ref.responses ? "true" : "false")
       << ",\"trace_digest\":\"" << std::hex << fnv1a(t.trace) << std::dec << "\""
       << ",\"snapshot_equal\":" << (snapshot_equal ? "true" : "false")
       << ",\"restored_ops\":" << t.restored_ops
       << ",\"parse_errors\":" << t.parse_errors << ",\"rejected\":" << t.rejected
       << ",\"engine_steps\":" << t.engine_steps << ",\"decisions\":" << g_counters.decisions
       << ",\"accepted\":" << g_counters.accepted
       << ",\"peak_waiting\":" << g_counters.peak_waiting
       << ",\"llm_calls\":" << g_counters.llm_calls
       << ",\"prompt_bytes\":" << g_counters.prompt_bytes
       << ",\"scratchpad_entries\":" << g_counters.scratchpad_entries
       << ",\"prompt_tokens\":" << g_counters.prompt_tokens
       << ",\"completion_tokens\":" << g_counters.completion_tokens
       << ",\"simulated_latency_s\":" << json_number(g_counters.simulated_latency_s)
       << ",\"runlog_rows\":" << g_counters.runlog_rows
       << ",\"runlog_dropped\":" << t.runlog_dropped << ",\"decide_layer\":\""
       << layer_of(g_counters.decide_layer)
       << "\",\"scheduler_counters\":{";
    for (std::size_t i = 0; i < t.scheduler_counters.size(); ++i) {
      js << (i ? "," : "") << quoted(t.scheduler_counters[i].first) << ":"
         << json_number(t.scheduler_counters[i].second);
    }
    js << "}}";
  }
  js << "}\n";
  write_file(prefix + ".json", js.str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    register_traced_method();
    const util::CliArgs args(argc, argv);
    const std::vector<std::string>& cmd = args.positional();
    if (!cmd.empty() && cmd[0] == "span") return cmd_span(args);
    if (!cmd.empty() && cmd[0] == "run") return cmd_run(args);
    std::fprintf(stderr, "usage: perfbench_replay span|run [options]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
}
