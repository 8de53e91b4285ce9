//===- ServeWorkload.cpp - Compile-server workload over a socket --------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The `serve` workload: the real selgen-served binary on a unix socket
// (`--threads 2 --selector tiling --cost-model latency`, the shipped
// full library), driven closed-loop by one client thread over two
// connections. Each connection sends its next batch only when the
// previous reply has arrived. A batch names 1-16 of the eleven
// CINT2000 profiles in an order drawn from the seed. Latency is what
// the client sees: frame write to reply read.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Oracle.h"
#include "Trace.h"

#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "isel/TilingSelector.h"
#include "serve/ServeProtocol.h"
#include "support/Rng.h"
#include "support/Wire.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <sstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace selgen;

namespace {

constexpr unsigned Width = 8;
constexpr unsigned Connections = 2;
constexpr unsigned MaxBatch = 16;
constexpr unsigned SetupRepeats = 15;
constexpr unsigned OracleRuns = 3;
/// ~350 requests per window: a window's p99 is not its slowest sample.
constexpr double WindowSeconds = 2;
/// Traced runs alternate untraced and traced slices of this length.
constexpr double SliceSeconds = 0.5;
/// Traced requests replayed in process for the server-side split.
constexpr size_t ReplayRequests = 64;
const char *const SocketName = "serve.sock"; // Relative: sun_path is short.

/// The running server, stopped at exit on every path.
pid_t GServer = -1;

void stopServer() {
  if (GServer <= 0)
    return;
  kill(GServer, SIGTERM);
  for (int Waited = 0; Waited < 2000; ++Waited) { // 20 s drain budget.
    if (waitpid(GServer, nullptr, WNOHANG) == GServer) {
      GServer = -1;
      return;
    }
    usleep(10000);
  }
  kill(GServer, SIGKILL);
  waitpid(GServer, nullptr, 0);
  GServer = -1;
}

void spawnServer(const RunConfig &Config, const std::string &Library,
                 const std::string &Image) {
  std::string Tool = Config.ToolDir + "/selgen-served";
  std::vector<std::string> Args = {Tool,
                                   "--library", Library,
                                   "--automaton", Image,
                                   "--socket", SocketName,
                                   "--threads", "2",
                                   "--selector", "tiling",
                                   "--cost-model", "latency",
                                   "--stats-json", "served-stats.json"};
  pid_t Pid = fork();
  if (Pid < 0)
    fatal("fork failed");
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM); // Never outlive the benchmark.
    int Log = open("served.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Log >= 0) {
      dup2(Log, STDOUT_FILENO);
      dup2(Log, STDERR_FILENO);
    }
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    execv(Tool.c_str(), Argv.data());
    _exit(127);
  }
  GServer = Pid;
}

int connectSocket() {
  int Fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketName, sizeof(Addr.sun_path) - 1);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

/// Polls the socket with health probes until the server answers.
void waitUntilHealthy() {
  Clock::time_point Start = Clock::now();
  while (secondsSince(Start) < 60) {
    int Status = 0;
    if (waitpid(GServer, &Status, WNOHANG) == GServer) {
      GServer = -1;
      fatal("selgen-served exited during start-up (see served.log)");
    }
    int Fd = connectSocket();
    if (Fd >= 0) {
      wire::Frame Reply;
      bool Healthy =
          wire::writeFrame(Fd, wire::Request, encodeHealthRequest()) &&
          wire::readFrame(Fd, Reply, 5000) == wire::ReadStatus::Ok &&
          Reply.Type == wire::Response && decodeHealthReply(Reply.Payload);
      close(Fd);
      if (Healthy)
        return;
    }
    usleep(1000);
  }
  fatal("selgen-served not healthy after 60 s");
}

/// Reads one integer counter from the server's --stats-json dump.
double statsCounter(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\":");
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Name.size() + 3, nullptr);
}

SelectionResult selectTiling(const Function &F, const Engine &R) {
  MappedCandidateSource Source(*R.Library, R.Image->view());
  return runTilingSelection(F, *R.Library, Source, CostKind::Latency);
}

const WorkloadProfile &profileNamed(const std::string &Name) {
  for (const WorkloadProfile &P : cint2000Profiles())
    if (P.Name == Name)
      return P;
  fatal("unknown profile " + Name);
}

/// Client-side figures of one measured phase.
struct PhaseStats {
  uint64_t Requests = 0, Functions = 0, ShedRetries = 0;
  double WallSeconds = 0;
  std::vector<Sample> Samples;
  double ServiceUs = 0, OutsideUs = 0, SelectUs = 0;
  std::vector<std::string> Payloads; ///< First traced requests, encoded.
};

class Client {
public:
  Client(const std::map<std::string, std::string> &Want, uint64_t Seed,
         RunResult &Result, Tracer &Trace)
      : Want(Want), Schedule(mixSeed(Seed, 2)), Result(Result),
        Trace(Trace) {
    for (unsigned I = 0; I < Connections; ++I) {
      Conn C;
      C.Fd = connectSocket();
      if (C.Fd < 0)
        fatal("cannot connect to selgen-served");
      Conns.push_back(C);
    }
  }
  ~Client() {
    for (Conn &C : Conns)
      close(C.Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// One batch of every profile per connection, untimed.
  void warmUp() {
    PhaseStats Ignored;
    std::vector<std::string> All;
    for (const WorkloadProfile &P : cint2000Profiles())
      All.push_back(P.Name);
    for (Conn &C : Conns)
      send(C, All, Ignored);
    while (busy())
      receive(Ignored);
  }

  /// Closed loop for \p Seconds, then drains the batches in flight.
  /// With \p Traced set, tracing is on in every other slice of the
  /// phase, and what completes in those slices counts there instead, so
  /// both sides of the tracing-overhead comparison see the same moments
  /// of the host's speed swings.
  PhaseStats measure(double Seconds, PhaseStats *Traced) {
    PhaseStats Stats;
    std::optional<Tracer::Span> Root; // Open over each traced slice.
    bool Tracing = false;
    Clock::time_point Start = Clock::now(), SliceStart = Start;
    PhaseStart = Start;
    auto EndSlice = [&] {
      (Tracing ? *Traced : Stats).WallSeconds += secondsSince(SliceStart);
      Root.reset();
      SliceStart = Clock::now();
    };
    while (true) {
      bool Slice =
          static_cast<uint64_t>(secondsSince(Start) / SliceSeconds) % 2;
      if (Traced && Slice != Tracing) {
        EndSlice();
        Tracing = Slice;
        Trace.setEnabled(Tracing);
        if (Tracing)
          Root.emplace(Trace, "serve.client");
      }
      PhaseStats &Into = Tracing ? *Traced : Stats;
      bool Sending = secondsSince(Start) < Seconds;
      for (Conn &C : Conns)
        if (Sending && !C.Busy)
          send(C, nextBatch(), Into);
      if (!busy())
        break;
      receive(Into);
    }
    EndSlice();
    Trace.setEnabled(false);
    return Stats;
  }

private:
  struct Conn {
    int Fd = -1;
    bool Busy = false;
    uint64_t Id = 0;
    std::vector<std::string> Names;
    std::string Payload;
    Clock::time_point Sent;
  };

  std::vector<std::string> nextBatch() {
    const std::vector<WorkloadProfile> &Profiles = cint2000Profiles();
    std::vector<std::string> Names(1 + Schedule.nextBelow(MaxBatch));
    for (std::string &Name : Names)
      Name = Profiles[Schedule.nextBelow(Profiles.size())].Name;
    return Names;
  }

  bool busy() const {
    return std::any_of(Conns.begin(), Conns.end(),
                       [](const Conn &C) { return C.Busy; });
  }

  void send(Conn &C, std::vector<std::string> Names, PhaseStats &Stats) {
    C.Id = NextId++;
    C.Names = std::move(Names);
    C.Payload = Trace.within("serve.encode", C.Id, [&] {
      return encodeBatchRequest({C.Id, Width, C.Names});
    });
    if (Trace.enabled() && Stats.Payloads.size() < ReplayRequests)
      Stats.Payloads.push_back(C.Payload);
    transmit(C);
  }

  void transmit(Conn &C) {
    C.Sent = Clock::now();
    bool Written = Trace.within("wire.write", C.Id, [&] {
      return wire::writeFrame(C.Fd, wire::Request, C.Payload);
    });
    if (!Written)
      fatal("connection to selgen-served lost");
    C.Busy = true;
  }

  /// Waits for at least one reply and handles every ready one.
  void receive(PhaseStats &Stats) {
    std::vector<pollfd> Fds;
    for (Conn &C : Conns)
      Fds.push_back({C.Fd, static_cast<short>(C.Busy ? POLLIN : 0), 0});
    int Ready = Trace.within("serve.wait", 0, [&] {
      return poll(Fds.data(), Fds.size(), 60000);
    });
    if (Ready <= 0)
      fatal("no reply from selgen-served within 60 s");
    for (size_t I = 0; I < Conns.size(); ++I)
      if (Fds[I].revents)
        handleReply(Conns[I], Stats);
  }

  void handleReply(Conn &C, PhaseStats &Stats) {
    wire::Frame Frame;
    wire::ReadStatus Status = Trace.within(
        "wire.read", C.Id, [&] { return wire::readFrame(C.Fd, Frame, 30000); });
    double RoundTripUs =
        std::chrono::duration<double, std::micro>(Clock::now() - C.Sent)
            .count();
    C.Busy = false;
    if (Status != wire::ReadStatus::Ok)
      fatal("connection to selgen-served broke");
    if (Frame.Type == wire::Error) {
      ServeError Error = decodeServeError(Frame.Payload);
      if (Error.Code == ServeErrorCode::Overloaded) {
        // Shed with a retry hint: honour it and resend the same batch.
        ++Stats.ShedRetries;
        usleep(1000u * Error.RetryAfterMs);
        transmit(C);
        return;
      }
      ++Result.Attempted;
      Result.fail(std::string("request failed: ") +
                  serveErrorCodeName(Error.Code) + ": " + Error.Message);
      return;
    }
    std::optional<BatchReply> Reply = Trace.within(
        "serve.decode", C.Id, [&] { return decodeBatchReply(Frame.Payload); });
    Tracer::Span Check(Trace, "bench.check", C.Id);
    ++Result.Attempted;
    if (!Reply || Reply->Id != C.Id ||
        Reply->Results.size() != C.Names.size()) {
      Result.fail("malformed reply to request " + std::to_string(C.Id));
      return;
    }
    double SelectUs = 0;
    for (size_t I = 0; I < C.Names.size(); ++I) {
      const BatchReply::Result &R = Reply->Results[I];
      SelectUs += R.SelectUs;
      if (R.Workload != C.Names[I] || R.Asm != Want.at(C.Names[I])) {
        Result.fail("request " + std::to_string(C.Id) + ": code for " +
                    C.Names[I] + " differs from in-process selection");
        return;
      }
    }
    ++Stats.Requests;
    Stats.Functions += C.Names.size();
    Stats.Samples.push_back({secondsSince(PhaseStart),
                             static_cast<double>(C.Names.size()),
                             RoundTripUs * 1e-3});
    Stats.ServiceUs += Reply->WallUs;
    Stats.OutsideUs += RoundTripUs - Reply->WallUs;
    Stats.SelectUs += SelectUs;
  }

  const std::map<std::string, std::string> &Want;
  Rng Schedule;
  RunResult &Result;
  Tracer &Trace;
  std::vector<Conn> Conns;
  uint64_t NextId = 1;
  Clock::time_point PhaseStart = Clock::now();
};

/// Runs the traced requests again in process, through the server's own
/// steps, to split the service time into layers.
void replay(const std::vector<std::string> &Payloads, const Engine &R,
            RunResult &Result, Tracer &Trace) {
  Tracer::Span Root(Trace, "serve.replay");
  uint64_t Functions = 0;
  for (size_t I = 0; I < Payloads.size(); ++I) {
    std::optional<BatchRequest> Request =
        Trace.within("serve.decode_request", I,
                     [&] { return decodeBatchRequest(Payloads[I]); });
    if (!Request)
      fatal("replayed request does not decode");
    BatchReply Reply;
    Reply.Id = Request->Id;
    for (const std::string &Name : Request->Workloads) {
      Function F = Trace.within(
          "eval", I, [&] { return buildWorkload(profileNamed(Name), Width); });
      SelectionResult Selected = Trace.within(
          "isel.tiling", I, [&] { return selectTiling(F, R); });
      BatchReply::Result Out;
      Out.Workload = Name;
      Out.Asm = Trace.within(
          "x86", I, [&] { return printMachineFunction(*Selected.MF); });
      Reply.Results.push_back(std::move(Out));
      ++Functions;
    }
    Trace.within("serve.encode_reply", I,
                 [&] { return encodeBatchReply(Reply); });
  }
  std::map<std::string, double> Self = Trace.selfSeconds();
  double Fns = std::max<double>(Functions, 1);
  double Reqs = std::max<double>(Payloads.size(), 1);
  Result.layer("eval.build_us", Self["eval"] / Fns * 1e6, "us");
  Result.layer("isel.tiling_us", Self["isel.tiling"] / Fns * 1e6, "us");
  Result.layer("x86.print_us", Self["x86"] / Fns * 1e6, "us");
  Result.layer("serve.decode_request_us",
               Self["serve.decode_request"] / Reqs * 1e6, "us");
  Result.layer("serve.encode_reply_us",
               Self["serve.encode_reply"] / Reqs * 1e6, "us");
}

} // namespace

RunResult perfbench::runServeWorkload(const RunConfig &Config,
                                      Tracer &Trace) {
  RunResult Result;
  std::error_code Ec;
  std::filesystem::current_path(Config.WorkDir, Ec);
  if (Ec)
    fatal("cannot enter " + Config.WorkDir);
  std::signal(SIGPIPE, SIG_IGN); // wire::writeFrame contract.
  std::atexit(stopServer);
  const std::string LibraryPath = shippedFullLibrary(Config);
  const std::string ImagePath = Config.WorkDir + "/serve.matb";

  // Set-up: image build, then cold start to the first health reply,
  // repeated; the last server stays up for the measurement.
  std::vector<double> SetupSeconds, ColdStart;
  ImageSetupTimes Times;
  Engine Ref;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    stopServer();
    Tracer::Span Setup(Trace, "setup");
    Clock::time_point Start = Clock::now();
    Ref = Engine();
    Ref = loadPrepareAndMapImage(Config, ImagePath, Times, Trace);
    Clock::time_point Spawn = Clock::now();
    std::filesystem::remove("served-stats.json", Ec);
    {
      Tracer::Span Cold(Trace, "serve.cold_start");
      spawnServer(Config, LibraryPath, ImagePath);
      waitUntilHealthy();
    }
    ColdStart.push_back(secondsSince(Spawn));
    SetupSeconds.push_back(secondsSince(Start));
  }

  // Reference code of every profile, in process, same selector and
  // cost model; then each checked against the interpreter.
  std::map<std::string, std::string> Want; ///< Profile -> printed code.
  uint64_t Cycles = 0, Instrs = 0;
  uint64_t TotalOps = 0, CoveredOps = 0, FallbackOps = 0;
  for (const WorkloadProfile &P : cint2000Profiles()) {
    const uint64_t Index = Want.size();
    Function F = buildWorkload(P, Width);
    SelectionResult Selected = selectTiling(F, Ref);
    Want[P.Name] = printMachineFunction(*Selected.MF);
    OracleOutcome Outcome = checkAgainstInterpreter(
        F, *Selected.MF, OracleRuns, mixSeed(Config.Seed, 300 + Index),
        false);
    ++Result.Attempted;
    if (!Outcome.Ok)
      Result.fail(P.Name + ": " + Outcome.Why);
    Cycles += Outcome.Cycles;
    Instrs += Selected.MF->numInstructions();
    TotalOps += Selected.TotalOperations;
    CoveredOps += Selected.CoveredOperations;
    FallbackOps += Selected.FallbackOperations;
  }

  PhaseStats Plain, Traced;
  double PeakRss = 0;
  {
    Trace.setEnabled(false);
    Client C(Want, Config.Seed, Result, Trace);
    C.warmUp();
    Plain = C.measure(Config.Seconds, Config.Trace ? &Traced : nullptr);
    PeakRss = processPeakRssMb(GServer);
  }
  Trace.setEnabled(Config.Trace);
  stopServer();
  std::stringstream Stats;
  Stats << std::ifstream("served-stats.json").rdbuf();
  const std::string StatsJson = Stats.str();

  Result.EndToEnd["setup_s"] = {median(SetupSeconds), "s"};
  Summary Sum = summarize(Plain.Samples, Plain.WallSeconds, WindowSeconds);
  Result.EndToEnd["ops_per_s"] = {Sum.UnitsPerSecond, "1/s"};
  Result.EndToEnd["latency_p50_ms"] = {Sum.P50Ms, "ms"};
  Result.EndToEnd["latency_p99_ms"] = {Sum.P99Ms, "ms"};
  Result.EndToEnd["peak_rss_mb"] = {PeakRss, "MiB"};
  Result.EndToEnd["code_cycles"] = {static_cast<double>(Cycles), "cycles"};
  Result.EndToEnd["code_instrs"] = {static_cast<double>(Instrs), "count"};
  std::printf("serve: %llu requests, %llu functions (%zu latency samples), "
              "%llu shed and retried\n",
              static_cast<unsigned long long>(Plain.Requests),
              static_cast<unsigned long long>(Plain.Functions),
              Sum.Samples, static_cast<unsigned long long>(Plain.ShedRetries));

  Result.layer("latency.samples", static_cast<double>(Sum.Samples), "count");
  Result.layer("pattern.load_s", median(Times.Load), "s");
  Result.layer("pattern.rules",
               static_cast<double>(Ref.Library->rules().size()), "count");
  Result.layer("semantics.goal_library_s", median(Times.Goals), "s");
  Result.layer("isel.prepare_s", median(Times.Prepare), "s");
  Result.layer("matchergen.build_s", median(Times.Build), "s");
  Result.layer("matchergen.write_s", median(Times.Write), "s");
  Result.layer("matchergen.map_s", median(Times.Map), "s");
  Result.layer("matchergen.image_bytes",
               static_cast<double>(Ref.Image->sizeBytes()), "bytes");
  const double Profiles = static_cast<double>(Want.size());
  Result.layer("isel.coverage",
               TotalOps ? static_cast<double>(CoveredOps) / TotalOps : 0,
               "ratio");
  Result.layer("isel.fallback_ops", FallbackOps / Profiles, "count/fn");
  Result.layer("serve.cold_start_s", median(ColdStart), "s");
  Result.layer("serve.queue_peak", statsCounter(StatsJson, "served.queue_peak"),
               "count");
  Result.layer("serve.shed", statsCounter(StatsJson, "served.shed"), "count");
  Result.layer("serve.timeouts", statsCounter(StatsJson, "served.timeouts"),
               "count");
  Result.layer("serve.failed_requests", static_cast<double>(Result.Failed),
               "count");
  if (!Config.Trace)
    return Result;

  const double Reqs = std::max<double>(Traced.Requests, 1);
  std::map<std::string, double> Self = Trace.selfSeconds();
  Result.layer("serve.encode_us", Self["serve.encode"] / Reqs * 1e6, "us");
  Result.layer("wire.write_us", Self["wire.write"] / Reqs * 1e6, "us");
  Result.layer("serve.wait_us", Self["serve.wait"] / Reqs * 1e6, "us");
  Result.layer("wire.read_us", Self["wire.read"] / Reqs * 1e6, "us");
  Result.layer("serve.decode_us", Self["serve.decode"] / Reqs * 1e6, "us");
  Result.layer("serve.service_us", Traced.ServiceUs / Reqs, "us");
  Result.layer("serve.outside_service_us", Traced.OutsideUs / Reqs, "us");
  Result.layer("serve.select_us", Traced.SelectUs / Reqs, "us");

  // Reconciliation of the client thread: its layers' self times against
  // the traced phase's wall time.
  double Layers = Self["serve.encode"] + Self["wire.write"] +
                  Self["serve.wait"] + Self["wire.read"] +
                  Self["serve.decode"] + Self["bench.check"];
  double Wall = Trace.totalSeconds("serve.client");
  const double Unattributed = 100.0 * (Wall - Layers) / Wall;
  Result.layer("trace.unattributed_pct", Unattributed, "%");
  if (Unattributed > 5)
    Result.fail("trace does not reconcile: " + std::to_string(Unattributed) +
                "% of the traced wall time is outside every layer");
  double PlainPerFn = Plain.WallSeconds / Plain.Functions;
  double TracedPerFn = Traced.WallSeconds / Traced.Functions;
  Result.layer("trace.overhead_pct", 100.0 * (TracedPerFn / PlainPerFn - 1),
               "%");

  replay(Traced.Payloads, Ref, Result, Trace);
  return Result;
}
