//===- perfbench/perfbench.cpp - End-to-end benchmark --------------------===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
// One workload per invocation. Untraced runs first measure the set-up in
// child processes of this program (--setup-only 1): a daemon bring-up on
// net_*, the training instance's construction on train_ppo.
//
// The net_* workloads serve:
//
//   train    a small fixture model through NeuroVectorizer::trainParallel
//            (not measured);
//   serve    open-loop frames of 16 programs over loopback to a NetServer
//            over a hosted AnnotationService at default configs, as
//            nv_serverd runs them; latency runs from each frame's due
//            time, and every served plan is checked against
//            NeuroVectorizer::plansFor loaded from the model file of the
//            generation that answered. Untraced runs report the process
//            CPU time per program answered.
//
// train_ppo trains: NeuroVectorizer::trainParallel runs a fixed step
// budget (process CPU time per step reported), then the held-out quality
// and a check that the saved model file plans like the trained instance.
//
// --trace 0 reports the gated end-to-end metrics. --trace 1 reports the
// per-layer ones: it trains with nproc workers, alternating batches of a
// copy of the training loop driven from here (rollout and update timed)
// with trainParallel's, runs the fixed-rate windows and the rate ladder
// (train_ppo serves its trained model on a hot set for this), adds codec
// timing to the load generator, and replays frames in process stage by
// stage through each module's public functions; the stage self times must
// reconcile with AnnotationService::annotateBatch on the same frames.
//
//   nv_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --workdir <dir>
//
// The last line of stdout is the result JSON; the line before it is the
// provenance block. Exit status: 0 ok, 1 a wrong plan or a failed check,
// 2 usage or set-up failure, 3 the load generator fell behind.
//
//===----------------------------------------------------------------------===//

#include "stats.h"

#include "core/NeuroVectorizer.h"
#include "dataset/LoopGenerator.h"
#include "dataset/Suites.h"
#include "embedding/ContextBuffer.h"
#include "embedding/PathContext.h"
#include "ir/Legality.h"
#include "ir/Lowering.h"
#include "lang/LoopExtractor.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "net/NetServer.h"
#include "net/Protocol.h"
#include "nn/Kernels.h"
#include "serve/AnnotationService.h"
#include "serve/ModelHost.h"
#include "sim/Compiler.h"
#include "support/Socket.h"
#include "support/Telemetry.h"
#include "train/Evaluator.h"
#include "train/RolloutWorkers.h"

#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace nv;
using perfbench::percentile;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
/// CPU time of the whole process, in seconds.
double processCpu() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double microsSince(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T).count();
}

constexpr int ProgramsPerFrame = 16;
/// Per-frame latency limit of the rate ladder (p99, from due time).
constexpr double LadderLimitMs = 50.0;
/// The generator has fallen behind, and the run fails, when its median
/// send lateness exceeds this at a fixed offered rate, or its last frame
/// left later than GenLagLimitShare of the window after its due time,
/// while the daemon kept up. Short host stalls delay the daemon as much as
/// the generator and show in both tails; they do not fail the run.
constexpr double GenLateLimitMs = 1.0;
constexpr double GenLagLimitShare = 0.1;
/// Reconciliation tolerance of the stage self times vs the CPU time of
/// annotateBatch on a one-thread service (its caller lane and its worker
/// both run phases, so CPU time, not wall time, is the sum of its work).
/// It covers the service's own bookkeeping around the stages (backend
/// resolution, per-phase pool hand-offs, telemetry), which the stage replay
/// does not repeat; on cache-hit frames it is 15-44% of the CPU time on a
/// 4-vCPU VM, most of it the hand-offs to the pool worker.
constexpr double ServeReconcileTolPct = 60.0;
/// The copy of the training loop against trainParallel: summed rollout +
/// update wall time of the copy vs the summed train.batch_us of
/// trainParallel over the same steps and workers, run one after the other.
constexpr double TrainReconcileTolPct = 20.0;
/// setup_s: the workload's set-up runs SetupRepeats times in each of
/// SetupProcesses child processes. The median within one process moved by
/// up to 1.6x from process to process (with the address-space layout,
/// which is randomized per process; with randomization off it stayed at
/// the slow end), so setup_s is the mean of the children's medians.
constexpr int SetupRepeats = 11;
constexpr int SetupProcesses = 15;
/// Fixed-rate windows are split into this many sub-windows, interleaving
/// low and high, so a slow stretch of the run hits both rates alike.
constexpr int Rounds = 3;
/// Socket windows of an untraced serving run, at the high rate;
/// cpu_us_per_unit is the median window's process CPU time per program
/// answered.
constexpr int CostWindows = 9;
/// LoopGenerator seed of the training programs.
constexpr uint64_t TrainSetSeed = 42;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Traffic { Unique, Hot };
/// What an untraced run measures: serving over the socket, or training.
enum class Gate { Serve, Train };

struct Workload {
  const char *Name;
  Gate Measures;
  Traffic Kind; ///< Socket traffic (train_ppo serves in traced runs only).
  int TrainPrograms; ///< Generated training programs.
  long long TrainSteps;
  int BatchSize;   ///< PPO transitions per update.
  int MiniBatch;   ///< PPO SGD minibatch.
  double LearningRate;
  /// Extra steps for a second model file; when > 0, ModelHost reloads
  /// alternate the two files during serving.
  long long SecondSteps;
  /// Offered rates (programs/s): about 1/4 and 3/5 of capacity at seed 1.
  double LowRate;
  double HighRate;
  perfbench::RateLadder Ladder; ///< Programs/s rungs.
};

// The capacity measurements behind these constants are in
// perfbench/README.md. They are constants: changing one changes the
// benchmark, not the program.
const Workload Workloads[] = {
    {"net_unique", Gate::Serve, Traffic::Unique, 128, 2048, 512, 64, 2e-3, 0,
     2500.0, 6000.0, {2500.0, 1.06, 48}},
    {"net_hot_reload", Gate::Serve, Traffic::Hot, 128, 2048, 512, 64, 2e-3,
     1024, 8000.0, 20000.0, {8000.0, 1.06, 48}},
    {"train_ppo", Gate::Train, Traffic::Hot, 256, 24000, 4000, 128, 1e-3, 0,
     8000.0, 20000.0, {8000.0, 1.06, 48}},
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

unsigned nproc() {
  const long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1u;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Result {
  bool Correct = true;
  long long Attempted = 0;
  long long Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void fail(const std::string &Why) {
    Correct = false;
    Problems.push_back(Why);
  }
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// Models: training, files, references
//===----------------------------------------------------------------------===//

NeuroVectorizerConfig modelConfig(const Workload &W) {
  NeuroVectorizerConfig C;
  C.Seed = 42;
  C.PPO.BatchSize = W.BatchSize;
  C.PPO.MiniBatchSize = W.MiniBatch;
  C.PPO.LearningRate = W.LearningRate;
  return C;
}

/// The per-batch split of the copy of the training loop (traced runs).
struct TrainPhase {
  std::vector<double> RolloutMs, UpdateMs, BatchMs;
  std::vector<double> CompileRunUs; ///< Per sampled transition.
};

/// The Trainer::run loop that NeuroVectorizer::trainParallel runs (no
/// curriculum, checkpoints or evaluation configured), copied here so each
/// batch can be split, one batch per call: rollout through
/// RolloutWorkers::collect, then PPORunner::trainOnBatch with entropy
/// annealed against the step budget and a Workers-sized math pool. It
/// gives the weights trainParallel gives, which the traced run checks.
/// After each batch the simulated toolchain is sampled outside the batch's
/// time.
class TrainCopy {
public:
  TrainCopy(NeuroVectorizer &NV, long long Steps, int Workers)
      : NV(NV), Steps(Steps), Pool(NV.env(), NV.rolloutSpec(), Workers),
        Math(Workers) {}

  bool done() const { return Done >= Steps; }

  void batch(TrainPhase &Out) {
    PPORunner &Runner = NV.runner();
    const PPOConfig &PPO = Runner.config();
    Runner.setMathPool(&Math);
    const auto BatchStart = Clock::now();
    Pool.collect(NV.embedder(), NV.policy(), Runner.rng(), NV.env().size(),
                 PPO.BatchSize, Buffer);
    const double RolloutUs = microsSince(BatchStart);
    Runner.rng().next();
    Done += PPO.BatchSize;
    const double Fraction =
        std::min(1.0, static_cast<double>(Done) / static_cast<double>(Steps));
    const double Coef =
        PPO.EntropyCoef + (PPO.FinalEntropyCoef - PPO.EntropyCoef) * Fraction;
    const auto UpdateStart = Clock::now();
    Runner.trainOnBatch(Buffer.Transitions, Coef);
    const double UpdateUs = microsSince(UpdateStart);
    Out.BatchMs.push_back(microsSince(BatchStart) / 1000.0);
    Out.RolloutMs.push_back(RolloutUs / 1000.0);
    Out.UpdateMs.push_back(UpdateUs / 1000.0);
    Runner.setMathPool(nullptr);
    sampleSim(Out);
  }

private:
  /// The simulated toolchain per transition, on a fresh parse of the
  /// transition's program with its sampled plan injected.
  void sampleSim(TrainPhase &Out) const {
    const SimCompiler &Sim = NV.env().compiler();
    const std::vector<int> VFs = NV.target().vfActions();
    const std::vector<int> IFs = NV.target().ifActions();
    for (size_t I = 0; I < std::min<size_t>(32, Buffer.size()); ++I) {
      const Transition &T = Buffer.Transitions[I];
      const EnvSample &S = NV.env().sample(T.SampleIdx);
      std::optional<Program> P = parseSource(printProgram(*S.Prog));
      if (!P)
        continue;
      std::vector<LoopSite> Sites = extractLoops(*P, false);
      if (T.SiteIdx >= Sites.size())
        continue;
      injectPragma(Sites[T.SiteIdx],
                   {VFs[static_cast<size_t>(T.Action.VFIdx)],
                    IFs[static_cast<size_t>(T.Action.IFIdx)]});
      const auto SimStart = Clock::now();
      (void)Sim.compileAndRun(*P);
      Out.CompileRunUs.push_back(microsSince(SimStart));
    }
  }

  NeuroVectorizer &NV;
  long long Steps;
  long long Done = 0;
  RolloutWorkers Pool;
  ThreadPool Math;
  RolloutBuffer Buffer;
};

/// What one NeuroVectorizer::trainParallel call cost.
struct TrainCost {
  double CpuS = 0.0;        ///< Process CPU time of the whole call.
  double BatchWallMs = 0.0; ///< Its batches, from train.batch_us.
  uint64_t Batches = 0;
};

/// Trains \p NV for \p Steps through NeuroVectorizer::trainParallel with
/// \p Workers, as a user runs it (no curriculum, checkpoints or run log).
/// The call ends with the held-out evaluation trainParallel always runs.
/// With \p Checkpoint set, the call trains one batch and resumes from the
/// checkpoint the previous call left, which trainParallel makes equal to
/// one uninterrupted run.
TrainCost trainProgram(NeuroVectorizer &NV, long long Steps, int Workers,
                       const std::string &Checkpoint = "") {
  ShardedHistogram &BatchUs = Telemetry::metrics().histogram("train.batch_us");
  const Histogram Before = BatchUs.snapshot();
  TrainerConfig TC;
  TC.NumWorkers = Workers;
  TC.TotalSteps = Steps;
  if (!Checkpoint.empty()) {
    TC.CheckpointPath = Checkpoint;
    TC.Resume = true;
    TC.MaxStepsThisRun = NV.runner().config().BatchSize;
  }
  const double Cpu0 = processCpu();
  NV.trainParallel(TC);
  TrainCost C;
  C.CpuS = processCpu() - Cpu0;
  const Histogram After = BatchUs.snapshot();
  C.BatchWallMs = static_cast<double>(After.sum() - Before.sum()) / 1000.0;
  C.Batches = After.count() - Before.count();
  return C;
}

/// A fresh instance with the workload's training programs. The training
/// set does not depend on the workload seed, so the trained models, and
/// with them the quality metrics, repeat exactly.
std::unique_ptr<NeuroVectorizer> makeTrainer(const NeuroVectorizerConfig &C,
                                             const Workload &W) {
  auto NV = std::make_unique<NeuroVectorizer>(C);
  LoopGenerator Gen(TrainSetSeed);
  while (static_cast<int>(NV->env().size()) < W.TrainPrograms) {
    const GeneratedLoop L = Gen.generate();
    NV->addTrainingProgram(L.Name, L.Source);
  }
  return NV;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

struct Quality {
  double RL = 0.0;
  double Brute = 0.0;
};

/// Geomean speedup over the baseline cost model on the held-out
/// benchmarks, for the RL backend and the brute-force oracle.
Quality heldOutQuality(NeuroVectorizer &NV) {
  double LogRL = 0.0, LogBrute = 0.0;
  int N = 0;
  for (const NamedProgram &B : evaluationBenchmarks()) {
    LogRL += std::log(NV.speedupOverBaseline(B.Source, PredictMethod::RL));
    LogBrute +=
        std::log(NV.speedupOverBaseline(B.Source, PredictMethod::BruteForce));
    ++N;
  }
  return {std::exp(LogRL / N), std::exp(LogBrute / N)};
}

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

/// ModelHost + hosted AnnotationService + NetServer at default configs.
struct Daemon {
  std::unique_ptr<ModelHost> Host;
  std::unique_ptr<AnnotationService> Service;
  std::unique_ptr<NetServer> Server;

  bool start(const ServingModelConfig &Models, const PathContextConfig &Paths,
             const TargetInfo &TI, const std::string &ModelPath,
             std::string *Error) {
    Host = std::make_unique<ModelHost>(Models);
    if (Host->reload(ModelPath, Error) != LoadStatus::Ok)
      return false;
    Service = std::make_unique<AnnotationService>(*Host, Paths, TI);
    Server = std::make_unique<NetServer>(*Service, *Host);
    return Server->start(Error);
  }

  ~Daemon() {
    if (Server)
      Server->shutdown();
  }
};

/// Brings a daemon up from \p File and waits until it answers a ping.
/// \p CpuS receives the process CPU time the bring-up took.
std::unique_ptr<Daemon> bringUp(const ServingModelConfig &Models,
                                const PathContextConfig &Paths,
                                const TargetInfo &TI, const std::string &File,
                                double &CpuS, std::string *Error) {
  const double Cpu0 = processCpu();
  auto D = std::make_unique<Daemon>();
  if (!D->start(Models, Paths, TI, File, Error))
    return nullptr;
  FileDescriptor Probe = connectTcp("127.0.0.1", D->Server->port(), Error,
                                    5000);
  const std::vector<char> Ping = net::encodePingRequest();
  char Header[net::ResponseHeaderSize];
  if (!Probe.valid() || !writeFull(Probe.fd(), Ping.data(), Ping.size()) ||
      !readFull(Probe.fd(), Header, sizeof(Header))) {
    if (Error)
      *Error = "no answer to a ping";
    return nullptr;
  }
  CpuS = processCpu() - Cpu0;
  return D;
}

//===----------------------------------------------------------------------===//
// Open-loop load generator
//===----------------------------------------------------------------------===//

/// The programs a window sends, in order, and the reference plans each
/// model file gives them.
struct TrafficPool {
  std::vector<AnnotationRequest> Programs;
  /// Expected[model][program]: plansFor under model file 0 (A) / 1 (B).
  std::vector<std::vector<std::vector<VectorPlan>>> Expected;
  Traffic Kind = Traffic::Unique;
  size_t NextUnique = 0;
  std::mt19937_64 Rng;

  /// Program indices for \p Frames frames.
  std::vector<uint32_t> draw(size_t Frames) {
    std::vector<uint32_t> Out(Frames * ProgramsPerFrame);
    for (uint32_t &Idx : Out) {
      if (Kind == Traffic::Unique) {
        Idx = static_cast<uint32_t>(NextUnique++ % Programs.size());
      } else {
        Idx = static_cast<uint32_t>(Rng() % Programs.size());
      }
    }
    return Out;
  }
};

struct WindowStats {
  double OfferedRate = 0.0; ///< Programs/s.
  size_t Frames = 0;
  size_t Answered = 0; ///< Frames answered Ok.
  size_t Shed = 0;     ///< Frames answered OVERLOADED.
  size_t FailedFrames = 0; ///< Any other non-Ok frame or failed result.
  size_t Sites = 0;
  size_t SitesMatched = 0;
  size_t Reloads = 0;
  size_t ReloadsFailed = 0;
  std::vector<double> LatencyMs;   ///< Due -> answered, per Ok frame.
  std::vector<double> RoundTripUs; ///< Sent -> answered, per Ok frame.
  std::vector<double> GenLateMs;   ///< Due -> sent, per frame.
  std::vector<double> CodecUs;     ///< Encode + decode, per frame (traced).
  std::vector<double> InFlight;    ///< Sampled frames in flight.
  bool BacklogGrew = false;
  bool DrainTimedOut = false;

  /// Latency percentile over every frame offered: shed and failed
  /// frames count as missing any limit (infinite latency).
  perfbench::TailValue p(double Q) const {
    std::vector<double> All = LatencyMs;
    All.resize(Frames, std::numeric_limits<double>::infinity());
    return perfbench::tailPercentile(All, Q);
  }
  bool meets(double LimitMs) const {
    const perfbench::TailValue P99 = p(0.99);
    return !BacklogGrew && !DrainTimedOut && !generatorBehind() &&
           P99.Valid && P99.Value <= LimitMs;
  }
  bool generatorBehind() const {
    if (GenLateMs.empty() || BacklogGrew)
      return false;
    const double WindowMs =
        1000.0 * static_cast<double>(Frames) * ProgramsPerFrame / OfferedRate;
    return percentile(GenLateMs, 0.5) > GenLateLimitMs ||
           GenLateMs.back() > std::max(50.0, GenLagLimitShare * WindowMs);
  }
};

class LoadGenerator {
public:
  LoadGenerator(uint16_t Port, int TrafficConns, TrafficPool &Pool,
                const std::vector<std::string> &ModelFiles, bool Reloads)
      : Pool(Pool), ModelFiles(ModelFiles), Reloads(Reloads) {
    for (int I = 0; I < TrafficConns + (Reloads ? 1 : 0); ++I) {
      std::string Error;
      FileDescriptor Fd = connectTcp("127.0.0.1", Port, &Error, 5000);
      if (!Fd.valid())
        throw std::runtime_error("connect: " + Error);
      Conns.push_back(std::move(Fd));
    }
    NumTraffic = TrafficConns;
  }

  /// Offers \p Rate programs/s for \p Seconds (at least \p MinFrames
  /// frames), then waits for every answer.
  WindowStats run(double Rate, double Seconds, size_t MinFrames, bool Codec);

private:
  TrafficPool &Pool;
  std::vector<std::string> ModelFiles;
  bool Reloads;
  std::vector<FileDescriptor> Conns;
  int NumTraffic = 0;
  uint64_t ReloadsIssued = 0;
};

WindowStats LoadGenerator::run(double Rate, double Seconds, size_t MinFrames,
                               bool Codec) {
  WindowStats W;
  W.OfferedRate = Rate;
  const double FrameRate = Rate / ProgramsPerFrame;
  const size_t N = std::max(
      MinFrames, static_cast<size_t>(std::ceil(FrameRate * Seconds)));
  W.Frames = N;
  const std::vector<uint32_t> Seq = Pool.draw(N);
  const auto Period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / FrameRate));

  std::vector<std::atomic<int64_t>> SentNs(N);
  std::vector<double> EncodeUs(N, 0.0), DecodeUs(N, 0.0);
  std::atomic<size_t> Sent{0}, Done{0};
  std::atomic<bool> ReloadPending{false};
  std::atomic<bool> SenderFailed{false};
  std::atomic<size_t> ReloadsOk{0}, ReloadsBad{0};
  std::vector<double> GenLate(N, 0.0);
  // Reloads at fixed offsets: every 0.5 s of the window, from 0.25 s.
  const double ReloadEvery = 0.5;
  const auto T0 = Clock::now() + std::chrono::milliseconds(2);

  std::thread Sender([&] {
    double NextReload = 0.25;
    for (size_t I = 0; I < N; ++I) {
      const auto Due = T0 + Period * static_cast<int64_t>(I);
      std::this_thread::sleep_until(Due);
      const auto Now = Clock::now();
      GenLate[I] = std::chrono::duration<double, std::milli>(Now - Due).count();
      if (Reloads &&
          std::chrono::duration<double>(Now - T0).count() >= NextReload) {
        NextReload += ReloadEvery;
        bool Expected = false;
        if (ReloadPending.compare_exchange_strong(Expected, true)) {
          const std::string &Path = ModelFiles[(ReloadsIssued + 1) % 2];
          ++ReloadsIssued;
          const std::vector<char> F = net::encodeReloadRequest(Path);
          if (!writeFull(Conns.back().fd(), F.data(), F.size()))
            SenderFailed = true;
        }
      }
      const auto EncodeStart = Clock::now();
      net::AnnotateRequestBody Req;
      Req.Programs.resize(ProgramsPerFrame);
      for (int J = 0; J < ProgramsPerFrame; ++J) {
        const AnnotationRequest &P = Pool.Programs[Seq[I * ProgramsPerFrame + J]];
        Req.Programs[J].Name = std::to_string(I);
        Req.Programs[J].Source = P.Source;
      }
      const std::vector<char> Frame = net::encodeAnnotateRequest(Req);
      if (Codec)
        EncodeUs[I] = microsSince(EncodeStart);
      SentNs[I].store(Clock::now().time_since_epoch().count(),
                      std::memory_order_relaxed);
      Sent.fetch_add(1, std::memory_order_release);
      if (!writeFull(Conns[I % static_cast<size_t>(NumTraffic)].fd(),
                     Frame.data(), Frame.size())) {
        SenderFailed = true;
        return;
      }
    }
  });

  // Receiver: reassembles response frames on every connection.
  std::vector<double> Lat, Rtt;
  Lat.reserve(N);
  Rtt.reserve(N);
  std::thread Receiver([&] {
    std::vector<std::vector<char>> Buf(Conns.size());
    std::vector<pollfd> Fds(Conns.size());
    for (size_t C = 0; C < Conns.size(); ++C)
      Fds[C] = pollfd{Conns[C].fd(), POLLIN, 0};
    const auto Deadline =
        T0 + Period * static_cast<int64_t>(N) + std::chrono::seconds(15);
    std::vector<char> Chunk(1 << 16);
    while (Done.load() < N || ReloadPending.load()) {
      if (SenderFailed.load() || Clock::now() > Deadline) {
        W.DrainTimedOut = true;
        return;
      }
      if (poll(Fds.data(), Fds.size(), 50) <= 0)
        continue;
      for (size_t C = 0; C < Conns.size(); ++C) {
        if (!(Fds[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        const ssize_t Got = ::read(Conns[C].fd(), Chunk.data(), Chunk.size());
        if (Got <= 0) {
          W.DrainTimedOut = true;
          return;
        }
        std::vector<char> &B = Buf[C];
        B.insert(B.end(), Chunk.data(), Chunk.data() + Got);
        size_t Off = 0;
        while (B.size() - Off >= net::ResponseHeaderSize) {
          net::ResponseHeader H;
          if (!net::parseResponseHeader(B.data() + Off, B.size() - Off, H)) {
            W.DrainTimedOut = true;
            return;
          }
          if (B.size() - Off < net::ResponseHeaderSize + H.BodyLen)
            break;
          const char *Body = B.data() + Off + net::ResponseHeaderSize;
          const auto Now = Clock::now();
          if (H.V == net::Verb::Reload) {
            uint64_t G = 0;
            if (H.Status == net::WireStatus::Ok &&
                net::decodeReloadOkBody(Body, H.BodyLen, G)) {
              ++ReloadsOk;
            } else {
              ++ReloadsBad;
            }
            ReloadPending = false;
          } else if (H.Status != net::WireStatus::Ok) {
            if (H.Status == net::WireStatus::Overloaded)
              ++W.Shed;
            else
              ++W.FailedFrames;
            Done.fetch_add(1);
          } else {
            const auto DecodeStart = Clock::now();
            net::AnnotateResponseBody Res;
            const bool Decoded = net::decodeAnnotateResponse(Body, H.BodyLen, Res);
            const double DecodeMicros = microsSince(DecodeStart);
            if (!Decoded || Res.Results.size() != ProgramsPerFrame) {
              ++W.FailedFrames;
              Done.fetch_add(1);
            } else {
              const size_t I = std::stoul(Res.Results[0].Name);
              const size_t Model = Res.Generation % 2 == 1 ? 0 : 1;
              bool FrameOk = I < N;
              for (int J = 0; FrameOk && J < ProgramsPerFrame; ++J) {
                const net::WireResult &R = Res.Results[J];
                if (!R.Ok) {
                  FrameOk = false;
                  break;
                }
                const std::vector<VectorPlan> &Want =
                    Pool.Expected[Model][Seq[I * ProgramsPerFrame + J]];
                W.Sites += Want.size();
                if (R.Plans.size() == Want.size())
                  for (size_t S = 0; S < Want.size(); ++S)
                    W.SitesMatched += R.Plans[S] == Want[S];
              }
              if (!FrameOk) {
                ++W.FailedFrames;
              } else {
                ++W.Answered;
                const auto Due = T0 + Period * static_cast<int64_t>(I);
                Lat.push_back(
                    std::chrono::duration<double, std::milli>(Now - Due)
                        .count());
                const int64_t SentAt = SentNs[I].load(std::memory_order_relaxed);
                Rtt.push_back(
                    static_cast<double>(Now.time_since_epoch().count() -
                                        SentAt) /
                    1000.0);
                DecodeUs[I] = DecodeMicros;
              }
              Done.fetch_add(1);
            }
          }
          Off += net::ResponseHeaderSize + H.BodyLen;
        }
        B.erase(B.begin(), B.begin() + static_cast<std::ptrdiff_t>(Off));
      }
    }
  });

  // Backlog sampler: frames sent but not yet answered, every 10 ms while
  // the window offers load.
  while (Sent.load() < N && !SenderFailed.load()) {
    W.InFlight.push_back(
        static_cast<double>(Sent.load() - std::min(Sent.load(), Done.load())));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Sender.join();
  Receiver.join();
  W.BacklogGrew = perfbench::backlogGrows(W.InFlight);
  W.LatencyMs = std::move(Lat);
  W.RoundTripUs = std::move(Rtt);
  W.GenLateMs = std::move(GenLate);
  if (Codec)
    for (size_t I = 0; I < N; ++I)
      W.CodecUs.push_back(EncodeUs[I] + DecodeUs[I]);
  W.Reloads = ReloadsOk.load();
  W.ReloadsFailed = ReloadsBad.load();
  if (SenderFailed.load())
    W.DrainTimedOut = true;
  return W;
}

//===----------------------------------------------------------------------===//
// Traced in-process replay of the serving pipeline
//===----------------------------------------------------------------------===//

/// Self time per layer (microseconds) and unit counts, accumulated over
/// the replayed frames.
struct StageTotals {
  double ParseUs = 0, ExtractUs = 0, ContextsUs = 0, CacheUs = 0,
         LegalityUs = 0, EmbedUs = 0, PredictUs = 0, ClampUs = 0,
         RenderUs = 0;
  size_t Programs = 0, Sites = 0, Contexts = 0, Analyzed = 0, Rows = 0,
         Clamped = 0;
};

/// One frame through the serving pipeline, stage by stage, each stage a
/// call into its module's public function. Mirrors what
/// AnnotationService::annotateBatch does for RL requests, serially.
/// Returns the summed self time of the stages and the plans per program.
double replayFrame(ModelHost &Host, PlanCache &Cache,
                   const PathContextConfig &Paths, const TargetInfo &TI,
                   const std::vector<const AnnotationRequest *> &Frame,
                   StageTotals &T,
                   std::vector<std::vector<VectorPlan>> &PlansOut) {
  static thread_local ContextBuffer Buf;
  std::shared_ptr<const ServingModel> Model = Host.current();
  const uint64_t Epoch = Model->generation();
  const bool InnerOnly = Model->meta().InnerContextOnly;
  double Self = 0.0;
  auto span = [&](double &Acc, auto &&Fn) {
    const auto S = Clock::now();
    Fn();
    const double Us = microsSince(S);
    Acc += Us;
    Self += Us;
  };

  struct Item {
    std::unique_ptr<Program> Prog;
    std::vector<LoopSite> Sites;
    std::vector<std::vector<PathContext>> Contexts;
    std::vector<ContextKey> Keys;
    std::vector<VectorPlan> Plans;
    std::vector<LegalityDigest> Digests;
    std::vector<uint8_t> Done;
  };
  std::vector<Item> Items(Frame.size());
  for (size_t I = 0; I < Frame.size(); ++I) {
    Item &It = Items[I];
    span(T.ParseUs, [&] {
      std::optional<Program> P = parseSource(Frame[I]->Source);
      if (P) {
        It.Prog = std::make_unique<Program>(std::move(*P));
        clearAllPragmas(*It.Prog);
      }
    });
    if (!It.Prog)
      continue;
    ++T.Programs;
    span(T.ExtractUs, [&] { It.Sites = extractLoops(*It.Prog, false); });
    T.Sites += It.Sites.size();
    span(T.ContextsUs, [&] {
      for (const LoopSite &Site : It.Sites) {
        const Stmt &Root = InnerOnly ? static_cast<const Stmt &>(*Site.Inner)
                                     : static_cast<const Stmt &>(*Site.Outer);
        const ContextSpan Span = extractPathContextsInto(Root, Paths, Buf);
        It.Contexts.emplace_back(Span.begin(), Span.end());
        It.Keys.push_back(contextBagKey(Span, InnerOnly, PredictMethod::RL));
        T.Contexts += Span.Size;
      }
    });
    It.Plans.assign(It.Sites.size(), VectorPlan{});
    It.Digests.assign(It.Sites.size(), LegalityDigest());
    It.Done.assign(It.Sites.size(), 0);
    bool AnyMiss = false;
    span(T.CacheUs, [&] {
      for (size_t S = 0; S < It.Sites.size(); ++S) {
        It.Done[S] = Cache.lookup(It.Keys[S], It.Plans[S], Epoch,
                                  &It.Digests[S]);
        AnyMiss |= !It.Done[S];
      }
    });
    if (AnyMiss)
      span(T.LegalityUs, [&] {
        const std::vector<LoopSummary> Summaries =
            lowerAllLoops(*It.Prog, It.Sites, TI.MaxVF);
        for (size_t S = 0; S < It.Sites.size(); ++S)
          if (!It.Done[S]) {
            It.Digests[S] = analyzeLegality(Summaries[S], TI).digest();
            ++T.Analyzed;
          }
      });
  }

  // Misses, deduplicated by key, embedded and predicted as one batch.
  struct Site {
    size_t Item, Index, Row;
  };
  std::vector<ContextSpan> Rows;
  std::vector<Site> Misses; ///< Every missed site and the row answering it.
  std::unordered_map<ContextKey, size_t, ContextKeyHash> RowByKey;
  for (size_t I = 0; I < Items.size(); ++I)
    for (size_t S = 0; S < Items[I].Done.size(); ++S) {
      if (Items[I].Done[S])
        continue;
      auto [Pos, New] = RowByKey.try_emplace(Items[I].Keys[S], Rows.size());
      if (New) {
        const std::vector<PathContext> &C = Items[I].Contexts[S];
        Rows.push_back(ContextSpan{C.data(), C.size()});
      }
      Misses.push_back({I, S, Pos->second});
    }
  if (!Rows.empty()) {
    Matrix States;
    span(T.EmbedUs,
         [&] { Model->embedder().encodeSpansInto(Rows, States, nullptr); });
    std::vector<VectorPlan> Pred;
    span(T.PredictUs, [&] {
      Pred = Model->backends().get(PredictMethod::RL)->plansForEmbeddings(
          States, nullptr);
    });
    T.Rows += Rows.size();
    span(T.ClampUs, [&] {
      std::vector<uint8_t> Inserted(Rows.size(), 0);
      for (const Site &M : Misses) {
        Item &It = Items[M.Item];
        const VectorPlan Legal =
            legalizePlan(It.Digests[M.Index].MaxSafeVF, Pred[M.Row], TI);
        It.Plans[M.Index] = Legal;
        if (!Inserted[M.Row]) {
          Inserted[M.Row] = 1;
          T.Clamped += Legal != Pred[M.Row];
          Cache.insert(It.Keys[M.Index], Legal, Epoch, It.Digests[M.Index]);
        }
      }
    });
  }

  PlansOut.assign(Items.size(), {});
  for (size_t I = 0; I < Items.size(); ++I) {
    Item &It = Items[I];
    if (!It.Prog)
      continue;
    span(T.RenderUs, [&] {
      for (size_t S = 0; S < It.Sites.size(); ++S)
        injectPragma(It.Sites[S], {It.Plans[S].VF, It.Plans[S].IF});
      const std::string Out = printProgram(*It.Prog);
      (void)Out;
    });
    PlansOut[I] = It.Plans;
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Running a workload
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20.0;
  bool Trace = false;
  std::string WorkDir = ".";
  bool SetupOnly = false; ///< Child mode: measure the set-up, print it.
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--workdir")
      A.WorkDir = V;
    else if (K == "--setup-only")
      A.SetupOnly = V == "1";
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

std::string provenanceJson(const Args &A, int Workers) {
  std::ostringstream OS;
  OS << "{\"workload\": " << jsonString(A.Workload) << ", \"seed\": " << A.Seed
     << ", \"seconds\": " << jsonNumber(A.Seconds)
     << ", \"trace\": " << (A.Trace ? 1 : 0) << ", \"nproc\": " << nproc()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"workers\": " << Workers << ", \"kernel_isa\": "
     << jsonString(kernelIsaName(kernelIsa()))
     << ", \"compiler\": " << jsonString(__VERSION__)
     << ", \"build_type\": " << jsonString(NV_PERFBENCH_BUILD_TYPE)
     << ", \"git_sha\": " << jsonString(NV_PERFBENCH_GIT_SHA) << "}";
  return OS.str();
}

void printResult(const Args &A, int Workers, const Result &R) {
  for (const std::string &P : R.Problems)
    std::cout << "CHECK FAILED: " << P << "\n";
  std::cout << "provenance " << provenanceJson(A, Workers) << "\n";
  std::ostringstream OS;
  OS << "{\"correct\": " << (R.Correct ? "true" : "false")
     << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    OS << (I ? ", " : "") << jsonString(M.Name) << ": {\"value\": "
       << jsonNumber(M.Value) << ", \"unit\": " << jsonString(M.Unit) << "}";
  }
  OS << "}}";
  std::cout << OS.str() << std::endl;
}

void describe(const char *Label, const WindowStats &W) {
  const perfbench::TailValue P50 = W.p(0.5), P99 = W.p(0.99);
  std::printf("  %-10s %8.0f programs/s offered  %6zu frames  p50 %7.3f ms  "
              "p99 %s (n=%zu)  gen-late p99 %.3f ms  shed %zu  failed %zu%s\n",
              Label, W.OfferedRate, W.Frames, P50.Value,
              P99.Valid ? (std::to_string(P99.Value) + " ms").c_str()
                        : "n/a (fewer than 10 beyond)",
              P99.Count, percentile(W.GenLateMs, 0.99), W.Shed, W.FailedFrames,
              W.BacklogGrew ? "  backlog grows" : "");
  std::printf("             p90 %.3f p95 %.3f p98 %.3f p99.5 %.3f p99.9 %.3f max %.3f\n",
              percentile(W.LatencyMs, 0.9), percentile(W.LatencyMs, 0.95),
              percentile(W.LatencyMs, 0.98), percentile(W.LatencyMs, 0.995),
              percentile(W.LatencyMs, 0.999), percentile(W.LatencyMs, 1.0));
}

/// The p99 of the answered frames of several sub-windows at one rate.
/// Shed frames are left out (net.shed_frames counts them), so the value is
/// finite; the rate ladder is what counts them as missing the limit.
perfbench::TailValue pooledP99(const std::vector<WindowStats> &Set) {
  std::vector<double> All;
  for (const WindowStats &W : Set)
    All.insert(All.end(), W.LatencyMs.begin(), W.LatencyMs.end());
  return perfbench::tailPercentile(All, 0.99);
}

/// The median of the sub-windows' p50s over answered frames.
double medianP50(const std::vector<WindowStats> &Set) {
  std::vector<double> P50s;
  for (const WindowStats &W : Set)
    P50s.push_back(percentile(W.LatencyMs, 0.5));
  return perfbench::median(P50s);
}

/// The workload's set-up, SetupRepeats times in this process; returns the
/// median process CPU time. net_*: a daemon bring-up from a model file of
/// the workload's architecture (the untrained instance's: training changes
/// the weights' values, not the file's layout or size). train_ppo: the
/// training instance's construction with its programs.
bool setupMedian(const Args &A, const Workload &W, double &Median,
                 std::string &Error) {
  const NeuroVectorizerConfig Config = modelConfig(W);
  std::vector<double> Cpu;
  if (W.Measures == Gate::Train) {
    for (int I = 0; I < SetupRepeats; ++I) {
      const double Cpu0 = processCpu();
      std::unique_ptr<NeuroVectorizer> NV = makeTrainer(Config, W);
      Cpu.push_back(processCpu() - Cpu0);
    }
  } else {
    const std::string File =
        A.WorkDir + "/model_setup_" + std::to_string(getpid()) + ".nvm";
    NeuroVectorizer Untrained(Config);
    if (!Untrained.save(File, &Error))
      return false;
    for (int I = 0; I < SetupRepeats; ++I) {
      double C = 0.0;
      if (!bringUp(Untrained.servingModelConfig(), Config.Embedding.Paths,
                   Config.Target, File, C, &Error))
        break;
      Cpu.push_back(C);
    }
    std::remove(File.c_str());
    if (Cpu.size() != static_cast<size_t>(SetupRepeats))
      return false;
  }
  Median = perfbench::median(Cpu);
  return true;
}

/// Runs setupMedian in a child process of this program (a fresh
/// address-space layout) and waits for it.
bool setupInChild(const Args &A, double &Median, std::string &Error) {
  int Pipe[2];
  if (pipe(Pipe) != 0) {
    Error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  const std::vector<std::string> Args = {
      "nv_perfbench", "--workload", A.Workload, "--workdir", A.WorkDir,
      "--setup-only", "1"};
  std::vector<char *> Argv;
  for (const std::string &S : Args)
    Argv.push_back(const_cast<char *>(S.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  const int Rc = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                             Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  char Buf[256];
  ssize_t Got = 0;
  while (Rc == 0 && (Got = ::read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(Got));
  close(Pipe[0]);
  if (Rc != 0) {
    Error = "cannot start a set-up process";
    return false;
  }
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      std::sscanf(Out.c_str(), "setup %lf", &Median) != 1) {
    Error = "set-up process failed: " + Out;
    return false;
  }
  return true;
}

/// Checks the plan tally, prints the result and gives the exit status.
int finish(const Args &A, int Workers, Result &R, size_t Sites,
           size_t Matched, bool GenBehind) {
  const double MatchPct =
      Sites ? 100.0 * static_cast<double>(Matched) / Sites : 0.0;
  if (!A.Trace)
    R.add("plan_match_pct", MatchPct, "%");
  std::printf("plans: %zu of %zu plans match the reference (%.4f%%)\n",
              Matched, Sites, MatchPct);
  if (Sites == 0)
    R.fail("no plans checked");
  if (Matched != Sites)
    R.fail(std::to_string(Sites - Matched) +
           " plans differ from the reference");
  if (GenBehind) {
    std::cout << "the load generator, not the daemon, missed its schedule: "
                 "no result\n";
    return 3;
  }
  printResult(A, Workers, R);
  return R.Correct ? 0 : 1;
}

int runWorkload(const Args &A, const Workload &W) {
  const int Workers = static_cast<int>(nproc());
  const bool Reloads = W.SecondSteps > 0;
  const bool Trains = W.Measures == Gate::Train;
  Result R;
  const double S = A.Seconds;
  std::cout << "workload " << W.Name << "  seed " << A.Seed << "  seconds "
            << S << "  trace " << A.Trace << "  workers " << Workers << "\n";
  size_t Sites = 0, Matched = 0; // Plans checked against a reference.
  std::vector<double> SetupS;
  const NeuroVectorizerConfig Config = modelConfig(W);
  const std::string FileA = A.WorkDir + "/model_a.nvm";
  const std::string FileB = A.WorkDir + "/model_b.nvm";
  std::vector<std::string> Files = {FileA};
  std::string Error;

  // --- Setup ----------------------------------------------------------------
  if (!A.Trace) {
    for (int I = 0; I < SetupProcesses; ++I) {
      double Median = 0.0;
      if (!setupInChild(A, Median, Error)) {
        std::cerr << "set-up failed: " << Error << "\n";
        return 2;
      }
      SetupS.push_back(Median);
    }
  }

  // --- Train ----------------------------------------------------------------
  // Untraced runs train with one worker, so the CPU time per step is the
  // serial cost; traced runs use nproc workers.
  const int TrainWorkers = A.Trace ? Workers : 1;
  std::unique_ptr<NeuroVectorizer> NV = makeTrainer(Config, W);
  // Traced: the copy of the loop on a twin from the same start gives the
  // per-batch split. Its batches alternate with trainParallel's, one batch
  // per call, so each pair sees the same host: the copy must reach
  // trainParallel's weights, and its rollout + update must add up to
  // trainParallel's batch time.
  TrainPhase Train;
  TrainCost Cost;
  const std::string FileTwin = A.WorkDir + "/model_twin.nvm";
  if (A.Trace) {
    // One batch on a throwaway instance first, so neither side pays the
    // process's cold start.
    {
      std::unique_ptr<NeuroVectorizer> Warm = makeTrainer(Config, W);
      TrainCopy WarmCopy(*Warm, W.BatchSize, Workers);
      TrainPhase Discard;
      WarmCopy.batch(Discard);
    }
    std::unique_ptr<NeuroVectorizer> Twin = makeTrainer(Config, W);
    TrainCopy Copy(*Twin, W.TrainSteps, Workers);
    const std::string Checkpoint = A.WorkDir + "/train.ckpt";
    while (!Copy.done()) {
      Copy.batch(Train);
      const TrainCost C =
          trainProgram(*NV, W.TrainSteps, Workers, Checkpoint);
      Cost.CpuS += C.CpuS;
      Cost.BatchWallMs += C.BatchWallMs;
      Cost.Batches += C.Batches;
    }
    std::remove(Checkpoint.c_str());
    if (!Twin->save(FileTwin, &Error)) {
      std::cerr << "save failed: " << Error << "\n";
      return 2;
    }
  } else {
    Cost = trainProgram(*NV, W.TrainSteps, TrainWorkers);
  }
  if (!NV->save(FileA, &Error)) {
    std::cerr << "save failed: " << Error << "\n";
    return 2;
  }
  std::printf("train: %lld steps in %llu batches, %.3f s of batches, %.3f s "
              "CPU (%.1f us/step)\n",
              W.TrainSteps, static_cast<unsigned long long>(Cost.Batches),
              Cost.BatchWallMs / 1000.0, Cost.CpuS,
              1e6 * Cost.CpuS / static_cast<double>(W.TrainSteps));
  if (Trains && !A.Trace)
    R.add("cpu_us_per_unit",
          1e6 * Cost.CpuS / static_cast<double>(W.TrainSteps), "us");

  double TrainErrPct = 0.0;
  if (A.Trace) {
    if (readFile(FileTwin) != readFile(FileA))
      R.fail("the copy of the training loop and trainParallel trained "
             "different weights");
    std::remove(FileTwin.c_str());
    double Split = 0.0;
    for (size_t I = 0; I < Train.BatchMs.size(); ++I)
      Split += Train.RolloutMs[I] + Train.UpdateMs[I];
    TrainErrPct = 100.0 * std::fabs(Split - Cost.BatchWallMs) /
                  Cost.BatchWallMs;
    std::printf("reconcile train: rollout+update %.1f ms vs trainParallel "
                "batches %.1f ms (%.2f%%, tolerance %.0f%%)\n",
                Split, Cost.BatchWallMs, TrainErrPct, TrainReconcileTolPct);
    // Enforced on train_ppo; the net_* fixture's four short batches are
    // reported only.
    if (Trains && TrainErrPct > TrainReconcileTolPct)
      R.fail("train reconciliation outside tolerance");
    if (Train.BatchMs.size() != Cost.Batches)
      R.fail("the copy of the training loop ran a different batch count");
  }
  if (W.SecondSteps > 0) {
    trainProgram(*NV, W.SecondSteps, TrainWorkers);
    if (!NV->save(FileB, &Error)) {
      std::cerr << "save failed: " << Error << "\n";
      return 2;
    }
    Files.push_back(FileB);
  }
  const ServingModelConfig Models = NV->servingModelConfig();

  // Reference instances, one per model file.
  std::vector<std::unique_ptr<NeuroVectorizer>> Refs;
  for (const std::string &F : Files) {
    Refs.push_back(std::make_unique<NeuroVectorizer>(Config));
    if (!Refs.back()->load(F, &Error)) {
      std::cerr << "reference load failed: " << Error << "\n";
      return 2;
    }
  }

  // --- Quality ----------------------------------------------------------------
  double EvalMs = 0.0;
  if (!A.Trace) {
    const Quality Q = heldOutQuality(*Refs[0]);
    R.add("rl_speedup_geomean", Q.RL, "x");
    R.add("rl_vs_brute_pct", 100.0 * Q.RL / Q.Brute, "%");
    std::printf("quality: RL geomean %.6f  brute %.6f  (%.4f%%)\n", Q.RL,
                Q.Brute, 100.0 * Q.RL / Q.Brute);
  } else {
    Evaluator Eval(SimCompiler(Config.Target, Config.Machine),
                   Config.Embedding.Paths);
    Eval.addSuite("benchmarks", evaluationBenchmarks());
    const auto EvalStart = Clock::now();
    Eval.evaluate(Refs[0]->embedder(), Refs[0]->policy());
    EvalMs = microsSince(EvalStart) / 1000.0;
  }

  if (Trains && !A.Trace) {
    // No serving: the saved model file, loaded, must plan like the
    // trained instance on the held-out and the training programs.
    std::vector<std::string> Sources;
    for (const NamedProgram &B : evaluationBenchmarks())
      Sources.push_back(B.Source);
    LoopGenerator Gen(TrainSetSeed);
    for (const GeneratedLoop &L : Gen.generateMany(W.TrainPrograms))
      Sources.push_back(L.Source);
    for (const std::string &Src : Sources) {
      const std::vector<VectorPlan> Want = NV->plansFor(Src);
      const std::vector<VectorPlan> Got = Refs[0]->plansFor(Src);
      Sites += Want.size();
      if (Got.size() == Want.size())
        for (size_t I = 0; I < Want.size(); ++I)
          Matched += Got[I] == Want[I];
    }
    R.Attempted = static_cast<long long>(Sources.size());
  }
  NV.reset();

  std::unique_ptr<Daemon> D;
  if (!Trains || A.Trace) {
    double Cpu = 0.0;
    D = bringUp(Models, Config.Embedding.Paths, Config.Target, FileA, Cpu,
                &Error);
    if (!D) {
      std::cerr << "daemon start failed: " << Error << "\n";
      return 2;
    }
  }
  auto reportSetup = [&] {
    double Mean = 0.0;
    for (double V : SetupS)
      Mean += V / static_cast<double>(SetupS.size());
    std::printf("setup: mean %.6f s CPU of %zu processes' medians (min "
                "%.6f, max %.6f)\n",
                Mean, SetupS.size(), percentile(SetupS, 0.0),
                percentile(SetupS, 1.0));
    R.add("setup_s", Mean, "s");
  };

  if (!D) {
    // train_ppo, untraced: no serving.
    reportSetup();
    for (const std::string &F : Files)
      std::remove(F.c_str());
    return finish(A, Workers, R, Sites, Matched, false);
  }

  // --- Traffic and references -----------------------------------------------
  TrafficPool Pool;
  Pool.Kind = W.Kind;
  Pool.Rng.seed(A.Seed * 31 + 7);
  {
    LoopGenerator Gen(A.Seed);
    for (const GeneratedLoop &L :
         Gen.generateMany(W.Kind == Traffic::Unique ? 16384 : 64))
      Pool.Programs.push_back({L.Name, L.Source, {}});
  }
  for (auto &Ref : Refs) {
    Pool.Expected.emplace_back();
    for (const AnnotationRequest &P : Pool.Programs)
      Pool.Expected.back().push_back(Ref->plansFor(P.Source));
  }
  if (Pool.Expected.size() == 1)
    Pool.Expected.push_back(Pool.Expected[0]); // No reloads: gen 1 only.

  // --- Serve ------------------------------------------------------------------
  const int TrafficConns = std::max(1, std::min(3, Workers - 1));
  LoadGenerator Load(D->Server->port(), TrafficConns, Pool, Files, Reloads);
  const size_t TailFrames = perfbench::samplesForTail(0.99);
  auto window = [&](const char *Label, double Rate, double Secs,
                    bool Codec) -> WindowStats {
    WindowStats Win = Load.run(Rate, Secs, TailFrames, Codec);
    describe(Label, Win);
    return Win;
  };
  auto tally = [&](const WindowStats &Win) {
    Sites += Win.Sites;
    Matched += Win.SitesMatched;
  };

  bool GenBehind = false;
  // attempted/failed count the frames offered at the two fixed rates; a
  // shed or failed frame is failed. A failed frame fails the run at any
  // rate, a shed one at the low rate; sheds at the high rate are admission
  // control at work (net.shed_frames in traced runs).
  auto checkWindow = [&](const char *Label, const WindowStats &Win) {
    tally(Win);
    R.Attempted += static_cast<long long>(Win.Frames);
    R.Failed += static_cast<long long>(Win.Shed + Win.FailedFrames);
    if (Win.FailedFrames)
      R.fail(std::string(Label) + ": " + std::to_string(Win.FailedFrames) +
             " frames failed");
    if (Win.Shed && Win.OfferedRate == W.LowRate)
      R.fail(std::string(Label) + ": " + std::to_string(Win.Shed) +
             " low-rate frames shed");
    if (Win.DrainTimedOut)
      R.fail(std::string(Label) + ": frames left unanswered");
    if (Win.SitesMatched != Win.Sites)
      R.fail(std::string(Label) + ": " +
             std::to_string(Win.Sites - Win.SitesMatched) +
             " served plans differ from the reference");
    if (Reloads && Win.ReloadsFailed)
      R.fail(std::string(Label) + ": reload failed");
    if (Reloads && Win.Frames * ProgramsPerFrame / Win.OfferedRate > 0.5 &&
        Win.Reloads == 0)
      R.fail(std::string(Label) + ": no reload landed");
    if (Win.generatorBehind()) {
      std::printf("load generator fell behind at %.0f programs/s: median "
                  "send lateness %.3f ms, last frame %.1f ms late\n",
                  Win.OfferedRate, percentile(Win.GenLateMs, 0.5),
                  Win.GenLateMs.empty() ? 0.0 : Win.GenLateMs.back());
      GenBehind = true;
    }
  };
  // Warm-up (pools, cache, allocator).
  checkWindow("warm-up", window("warm-up", W.LowRate, 0.05 * S, false));

  if (!A.Trace) {
    // Serving cost: process CPU time per program answered over the socket
    // at the high rate, in CostWindows windows over 60% of the run; the
    // median window is reported. (At the low rate the daemon's threads
    // sleep between frames, and the cost of waking them varies with the
    // host by up to half between runs.) The process holds the daemon and the
    // load generator; the generator's share is fixed benchmark code. On
    // net_hot_reload the windows include the reloads and the cache
    // refills they force.
    std::vector<double> CostUs;
    for (int I = 0; I < CostWindows; ++I) {
      const double Cpu0 = processCpu();
      const WindowStats Win = Load.run(W.HighRate, 0.6 * S / CostWindows, 0,
                                       false);
      const double Cpu = processCpu() - Cpu0;
      describe("cost", Win);
      checkWindow("cost", Win);
      CostUs.push_back(1e6 * Cpu / static_cast<double>(
                                      std::max<size_t>(1, Win.Answered) *
                                      ProgramsPerFrame));
    }
    std::printf("serve cost: median %.3f us/program over %zu windows "
                "(q1 %.3f, q3 %.3f)\n",
                perfbench::median(CostUs), CostUs.size(),
                percentile(CostUs, 0.25), percentile(CostUs, 0.75));
    R.add("cpu_us_per_unit", perfbench::median(CostUs), "us");
    reportSetup();
  } else {
    // Fixed offered rates: Rounds interleaved sub-windows per rate. p50 is
    // the median of the sub-window p50s; p99 pools the frames answered at
    // the rate. The sub-windows offer a quarter more frames than p99 needs
    // for ten beyond it, so a few shed frames still leave enough.
    const size_t SubFrames = (TailFrames * 5 / 4 + Rounds - 1) / Rounds;
    std::vector<WindowStats> Low, High;
    for (int Round = 0; Round < Rounds; ++Round) {
      Low.push_back(Load.run(W.LowRate, 0.15 * S / Rounds, SubFrames, false));
      describe("low", Low.back());
      checkWindow("low", Low.back());
      High.push_back(Load.run(W.HighRate, 0.1 * S / Rounds, SubFrames,
                              false));
      describe("high", High.back());
      checkWindow("high", High.back());
    }

    // Ladder: a rung fails only when two probes in a row miss the limit,
    // so one host stall cannot end the search.
    std::vector<int> Probed;
    const int Top = W.Ladder.highestMeeting(
        [&](int K) {
          for (int Attempt = 0; Attempt < 2; ++Attempt) {
            char Label[32];
            std::snprintf(Label, sizeof(Label), "rung %d", K);
            const WindowStats P =
                window(Label, W.Ladder.rate(K), 0.03 * S, false);
            tally(P);
            if (P.meets(LadderLimitMs))
              return true;
          }
          return false;
        },
        &Probed);
    const double MaxRate = Top < 0 ? W.Ladder.rate(0) / W.Ladder.Ratio
                                   : W.Ladder.rate(Top);
    std::printf("ladder: highest rung meeting p99 <= %.0f ms: %d (%.0f "
                "programs/s), %zu rungs probed\n",
                LadderLimitMs, Top, MaxRate, Probed.size());

    // Codec timing on: the tracing overhead is this window's p50 minus the
    // untraced low-rate p50 above.
    const WindowStats Traced =
        window("low+trace", W.LowRate, 0.1 * S, true);
    checkWindow("low+trace", Traced);

    // Replay: low-rate frames in process, through the daemon's service
    // configuration, a one-thread service, and the stage replay. Reloads
    // come every half second of low-rate traffic, alternating the model
    // files like the socket windows do.
    const size_t ReloadEveryFrames = std::max<size_t>(
        1, static_cast<size_t>(W.LowRate / ProgramsPerFrame * 0.5));
    ModelHost Host(Models);
    std::vector<double> ReloadMs;
    auto timedReload = [&](const std::string &F) {
      const auto T = Clock::now();
      if (Host.reload(F, &Error) != LoadStatus::Ok)
        R.fail("replay reload failed: " + Error);
      ReloadMs.push_back(microsSince(T) / 1000.0);
    };
    timedReload(FileA);
    AnnotationService Daemonlike(Host, Config.Embedding.Paths, Config.Target);
    ServeConfig OneThread;
    OneThread.Threads = 1;
    AnnotationService Serial(Host, Config.Embedding.Paths, Config.Target,
                             OneThread);
    ServeConfig Defaults;
    PlanCache Cache(Defaults.CacheCapacity, Defaults.CacheShards);
    StageTotals T;
    std::vector<double> BatchUs, SerialUs, SelfUs;
    size_t CachedSites = 0, ServedSites = 0, Degraded = 0, Results = 0;
    const size_t ReplayFrames = std::max<size_t>(
        200, static_cast<size_t>(W.LowRate / ProgramsPerFrame * 0.1 * S));
    const std::vector<uint32_t> Seq = Pool.draw(ReplayFrames);
    size_t ReloadCount = 0;
    const auto ReplayStart = Clock::now();
    for (size_t F = 0; F < ReplayFrames; ++F) {
      if (Reloads && F > 0 && F % ReloadEveryFrames == 0)
        timedReload(Files[++ReloadCount % 2]);
      std::vector<AnnotationRequest> Reqs;
      std::vector<const AnnotationRequest *> Ptrs;
      for (int J = 0; J < ProgramsPerFrame; ++J) {
        Reqs.push_back(Pool.Programs[Seq[F * ProgramsPerFrame + J]]);
        Ptrs.push_back(&Pool.Programs[Seq[F * ProgramsPerFrame + J]]);
      }
      // The one-thread service runs first, so no other pool is still
      // winding down inside its CPU-time window.
      const double Cpu0 = processCpu();
      const std::vector<AnnotationResult> Out1 = Serial.annotateBatch(Reqs);
      SerialUs.push_back(1e6 * (processCpu() - Cpu0));
      const auto B0 = Clock::now();
      const std::vector<AnnotationResult> Out = Daemonlike.annotateBatch(Reqs);
      BatchUs.push_back(microsSince(B0));
      std::vector<std::vector<VectorPlan>> Replayed;
      SelfUs.push_back(replayFrame(Host, Cache, Config.Embedding.Paths,
                                   Config.Target, Ptrs, T, Replayed));
      const size_t Model = Host.generation() % 2 == 1 ? 0 : 1;
      for (size_t J = 0; J < Out.size(); ++J) {
        ++Results;
        Degraded += Out[J].Degraded;
        CachedSites += static_cast<size_t>(Out[J].CachedSites);
        ServedSites += Out[J].Plans.size();
        const std::vector<VectorPlan> &Want =
            Pool.Expected[Model][Seq[F * ProgramsPerFrame + J]];
        Sites += Want.size();
        if (Out[J].Ok && Out[J].Plans == Want && Out1[J].Plans == Want &&
            Replayed[J] == Want)
          Matched += Want.size();
      }
    }
    std::printf("replay: %zu frames in %.2f s\n", ReplayFrames,
                secondsSince(ReplayStart));

    // Per frame: |stage self sum - service CPU| / service CPU; the median
    // frame must fall within the tolerance.
    std::vector<double> FrameErrPct;
    double SumSelf = 0, SumSerial = 0;
    for (size_t F = 0; F < SelfUs.size(); ++F) {
      SumSelf += SelfUs[F];
      SumSerial += SerialUs[F];
      if (SerialUs[F] > 0)
        FrameErrPct.push_back(100.0 * std::fabs(SelfUs[F] - SerialUs[F]) /
                              SerialUs[F]);
    }
    const double ServeErrPct = perfbench::median(FrameErrPct);
    double SumUpdate = 0, SumBatch = 0;
    for (size_t I = 0; I < Train.BatchMs.size(); ++I) {
      SumUpdate += Train.UpdateMs[I];
      SumBatch += Train.BatchMs[I];
    }
    std::printf("reconcile serve: stage self %.0f us vs one-thread "
                "annotateBatch CPU %.0f us (median frame %.2f%%, tolerance "
                "%.0f%%)\n",
                SumSelf, SumSerial, ServeErrPct, ServeReconcileTolPct);
    if (ServeErrPct > ServeReconcileTolPct)
      R.fail("serve reconciliation outside tolerance");

    auto per = [](double Total, size_t N) {
      return N ? Total / static_cast<double>(N) : 0.0;
    };
    const perfbench::TailValue LowP99 = pooledP99(Low);
    const perfbench::TailValue HighP99 = pooledP99(High);
    if (!LowP99.Valid || !HighP99.Valid)
      R.fail("a fixed rate has fewer than 10 samples beyond p99");
    const double RttP50 = percentile(Traced.RoundTripUs, 0.5);
    const double CodecP50 = percentile(Traced.CodecUs, 0.5);
    const double BatchP50 = percentile(BatchUs, 0.5);
    size_t Shed = Traced.Shed;
    std::vector<double> GenLate;
    for (const std::vector<WindowStats> *Set : {&Low, &High})
      for (const WindowStats &Win : *Set) {
        Shed += Win.Shed;
        GenLate.insert(GenLate.end(), Win.GenLateMs.begin(),
                       Win.GenLateMs.end());
      }
    R.add("p50_ms.low", medianP50(Low), "ms");
    R.add("p99_ms.low", LowP99.Value, "ms");
    R.add("p50_ms.high", medianP50(High), "ms");
    R.add("p99_ms.high", HighP99.Value, "ms");
    R.add("max_programs_per_s", MaxRate, "1/s");
    // From the copy's batches: trainParallel's, one per call, each start
    // with fresh rollout workers.
    std::vector<double> StepsPerS;
    for (double Ms : Train.BatchMs)
      StepsPerS.push_back(1000.0 * W.BatchSize / Ms);
    R.add("train_steps_per_s", perfbench::median(StepsPerS), "1/s");
    R.add("peak_rss_mb", peakRssMb(), "MB");
    R.add("lang.parse_us", per(T.ParseUs, T.Programs), "us");
    R.add("lang.extract_us", per(T.ExtractUs, T.Programs), "us");
    R.add("lang.render_us", per(T.RenderUs, T.Programs), "us");
    R.add("embedding.contexts_us", per(T.ContextsUs, T.Sites), "us");
    R.add("embedding.contexts_per_site",
          per(static_cast<double>(T.Contexts), T.Sites), "count");
    R.add("embedding.embed_us", per(T.EmbedUs, T.Rows), "us");
    R.add("predictors.predict_us", per(T.PredictUs, T.Rows), "us");
    R.add("ir.legality_us", per(T.LegalityUs, T.Analyzed), "us");
    R.add("ir.clamp_frac", per(static_cast<double>(T.Clamped), T.Rows),
          "frac");
    R.add("serve.batch_us.p50", BatchP50, "us");
    R.add("serve.batch_us.p99", percentile(BatchUs, 0.99), "us");
    R.add("serve.batch_cpu_us.p50", percentile(SerialUs, 0.5), "us");
    R.add("serve.cache_hit_frac",
          per(static_cast<double>(CachedSites), ServedSites), "frac");
    R.add("serve.degraded_frac", per(static_cast<double>(Degraded), Results),
          "frac");
    R.add("serve.reload_ms", perfbench::median(ReloadMs), "ms");
    R.add("net.roundtrip_us.p50", RttP50, "us");
    R.add("net.roundtrip_us.p99", percentile(Traced.RoundTripUs, 0.99), "us");
    R.add("net.codec_us", CodecP50, "us");
    R.add("net.transport_us.p50", RttP50 - CodecP50 - BatchP50, "us");
    R.add("net.shed_frames", static_cast<double>(Shed), "count");
    R.add("net.gen_late_ms.p99", percentile(GenLate, 0.99), "ms");
    R.add("train.rollout_ms", perfbench::median(Train.RolloutMs), "ms");
    R.add("train.update_ms", perfbench::median(Train.UpdateMs), "ms");
    R.add("train.update_share", SumUpdate / SumBatch, "frac");
    R.add("train.eval_ms", EvalMs, "ms");
    R.add("sim.compile_run_us", perfbench::median(Train.CompileRunUs), "us");
    R.add("trace.reconcile_serve_pct", ServeErrPct, "%");
    R.add("trace.reconcile_train_pct", TrainErrPct, "%");
    R.add("trace.overhead_us",
          1000.0 * (percentile(Traced.LatencyMs, 0.5) - medianP50(Low)),
          "us");
  }

  D.reset();
  for (const std::string &F : Files)
    std::remove(F.c_str());
  return finish(A, Workers, R, Sites, Matched, GenBehind);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::cerr << "usage: nv_perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--workdir <dir>]\n";
    return 2;
  }
  const Workload *W = findWorkload(A.Workload);
  if (!W) {
    std::cerr << "unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  try {
    if (A.SetupOnly) {
      double Median = 0.0;
      std::string Error;
      if (!setupMedian(A, *W, Median, Error)) {
        std::cerr << Error << "\n";
        return 2;
      }
      std::printf("setup %.17g\n", Median);
      return 0;
    }
    return runWorkload(A, *W);
  } catch (const std::exception &E) {
    std::cerr << "error: " << E.what() << "\n";
    return 2;
  }
}
