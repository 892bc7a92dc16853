/**
 * Wall-clock benefit of next-event fast-forward (DESIGN.md Sec. 13).
 *
 * Runs hand-written SIMB workloads chosen to be dominated by long
 * quiescent intervals — barrier parking behind a sync, RAW-serialized
 * SIMD chains, and DRAM refresh windows — then every Table II
 * benchmark, once with dense per-cycle ticking and once with
 * fast-forward, and reports the wall time of both along with the
 * ratio.
 *
 * Bit-exactness is checked first (final cycle count and the full stats
 * registry must match between the two modes, and for the benchmarks
 * every output pixel); a divergence exits non-zero so CI can gate on
 * it.  The timings are reported, not gated — machine load must not
 * fail the build — but the emitted BENCH_hotloop.json records them
 * for the README table.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "apps/benchmarks.h"
#include "common/json.h"
#include "runtime/runtime.h"

using namespace ipim;

namespace {

using Clock = std::chrono::steady_clock;

struct Prog
{
    std::vector<Instruction> v;

    Prog &
    operator<<(Instruction i)
    {
        v.push_back(i);
        return *this;
    }

    std::vector<Instruction>
    done()
    {
        v.push_back(Instruction::halt());
        return v;
    }
};

struct Workload
{
    std::string name;
    HardwareConfig cfg;
    std::vector<std::vector<Instruction>> progs; ///< one per vault
};

u32
fullMask(const HardwareConfig &cfg)
{
    return (1u << cfg.pesPerVault()) - 1;
}

/**
 * Wrap @p body in a CRF countdown loop executed @p iters times
 * (test_sim.cc idiom: crf0 counts down, crf1 holds the loop head).
 */
void
emitLoop(Prog &p, u32 iters, const std::vector<Instruction> &body)
{
    p << Instruction::setiCrf(0, i32(iters));
    p << Instruction::setiCrf(1, i32(p.v.size() + 1));
    for (const Instruction &i : body)
        p << i;
    p << Instruction::calcCrfImm(AluOp::kAdd, 0, 0, -1);
    p << Instruction::cjump(0, 1);
}

/**
 * Vault 0 grinds a RAW-serialized MAC chain while every other vault
 * parks at a sync barrier: almost every cycle device-wide is a stall
 * the fast-forward layer can skip (the paper's kernels end the same
 * way — all vaults but the straggler waiting at the kernel sync).
 */
Workload
makeSyncStall()
{
    Workload w;
    w.name = "sync_stall";
    w.cfg = HardwareConfig::tiny();
    u32 mask = fullMask(w.cfg);

    Prog master;
    // d2 += d1 * d1 back to back: each MAC must wait out the previous
    // one's full SIMD latency before it can issue.
    std::vector<Instruction> chain;
    for (int i = 0; i < 8; ++i)
        chain.push_back(Instruction::comp(AluOp::kMac, DType::kF32,
                                          CompMode::kVecVec, 2, 1, 1,
                                          kFullVecMask, mask));
    emitLoop(master, 400, chain);
    master << Instruction::sync(1);

    Prog parked;
    parked << Instruction::sync(1);

    w.progs.assign(w.cfg.vaultsPerCube, parked.done());
    w.progs[0] = master.done();
    return w;
}

/**
 * Dependent DRAM loads under an aggressive refresh schedule: tREFI is
 * shrunk so the banks spend a large share of time inside tRFC, during
 * which the only pending event device-wide is the refresh completing.
 */
Workload
makeRefreshStorm()
{
    Workload w;
    w.name = "refresh_storm";
    w.cfg = HardwareConfig::tiny();
    w.cfg.timing.tREFI = 400; // refresh-dominated on purpose
    u32 mask = fullMask(w.cfg);

    Prog p;
    // Load into d1, then consume d1: the comp's RAW hazard serializes
    // each iteration behind the full DRAM access (and any refresh the
    // load queues behind).
    emitLoop(p, 300,
             {Instruction::memRf(false, MemOperand::direct(128), 1, mask),
              Instruction::comp(AluOp::kAdd, DType::kF32,
                                CompMode::kVecVec, 2, 1, 1, kFullVecMask,
                                mask)});
    w.progs.assign(w.cfg.vaultsPerCube, p.done());
    return w;
}

struct RunResult
{
    Cycle cycles = 0;
    std::string stats;
    u64 skipped = 0;
    u64 jumps = 0;
    f64 seconds = 0.0;
};

RunResult
runOnce(const Workload &w, bool fastForward)
{
    Device dev(w.cfg);
    dev.setFastForward(fastForward);
    dev.loadPrograms(w.progs);
    Clock::time_point t0 = Clock::now();
    RunResult r;
    r.cycles = dev.run();
    r.seconds = std::chrono::duration<f64>(Clock::now() - t0).count();
    r.stats = dev.stats().toString();
    r.skipped = dev.ffwdSkippedCycles();
    r.jumps = dev.ffwdJumps();
    return r;
}

f64
timeOnce(const std::function<void()> &fn)
{
    Clock::time_point t0 = Clock::now();
    fn();
    return std::chrono::duration<f64>(Clock::now() - t0).count();
}

/**
 * Two cubes of 16 vaults each, as in the paper, with small process
 * groups so the dense runs stay short: most vaults idle at a barrier
 * while a few work, which is the case per-vault wake targets.
 */
HardwareConfig
benchmarkDevice()
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    cfg.vaultsPerCube = 16;
    cfg.meshCols = 4;
    return cfg;
}

constexpr int kBenchWidth = 96;
constexpr int kBenchHeight = 48;

/**
 * Every Table II benchmark, dense vs fast-forward: cycles, stats, and
 * pixels must match; wall times are the minimum of interleaved reps.
 * @return false on any divergence.
 */
bool
runTableII(JsonWriter &jw)
{
    HardwareConfig cfg = benchmarkDevice();
    std::printf("\nTable II benchmarks at %dx%d on %u cubes x %u vaults "
                "x %u PGs x %u PEs:\n",
                kBenchWidth, kBenchHeight, cfg.cubes, cfg.vaultsPerCube,
                cfg.pgsPerVault, cfg.pesPerPg);
    std::printf("%-14s | %9s | %10s | %10s | %8s | %s\n", "benchmark",
                "cycles", "dense ms", "ffwd ms", "ffwd/dense", "result");

    bool allExact = true;
    jw.key("benchmarks");
    jw.beginArray();
    for (const std::string &name : allBenchmarkNames()) {
        BenchmarkApp app = makeBenchmark(name, kBenchWidth, kBenchHeight);
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        Device denseDev(cfg);
        denseDev.setFastForward(false);
        Device ffDev(cfg);

        LaunchResult dense, ff;
        f64 tDense = timeOnce(
            [&] { dense = launchOnDevice(denseDev, cp, app.inputs); });
        f64 tFf =
            timeOnce([&] { ff = launchOnDevice(ffDev, cp, app.inputs); });
        bool exact = dense.cycles == ff.cycles &&
                     denseDev.stats().toString() ==
                         ffDev.stats().toString() &&
                     dense.output.width() == ff.output.width() &&
                     dense.output.height() == ff.output.height();
        for (int y = 0; exact && y < dense.output.height(); ++y)
            for (int x = 0; exact && x < dense.output.width(); ++x)
                exact = f32AsLane(dense.output.at(x, y)) ==
                        f32AsLane(ff.output.at(x, y));
        allExact = allExact && exact;

        constexpr int kReps = 3;
        for (int i = 0; i < kReps; ++i) {
            tDense = std::min(tDense, timeOnce([&] {
                                  launchOnDevice(denseDev, cp, app.inputs);
                              }));
            tFf = std::min(tFf, timeOnce([&] {
                               launchOnDevice(ffDev, cp, app.inputs);
                           }));
        }

        f64 ratio = tFf / tDense;
        std::printf("%-14s | %9llu | %10.3f | %10.3f | %9.3f | %s\n",
                    name.c_str(), (unsigned long long)dense.cycles,
                    tDense * 1e3, tFf * 1e3, ratio,
                    exact ? "bit-exact" : "DIVERGED");

        jw.beginObject();
        jw.field("name", name);
        jw.field("cycles", u64(dense.cycles));
        jw.field("dense_wall_ms", tDense * 1e3);
        jw.field("ffwd_wall_ms", tFf * 1e3);
        jw.field("ffwd_over_dense", ratio);
        jw.field("jumps", ffDev.ffwdJumps());
        jw.field("bit_exact", exact);
        jw.endObject();
    }
    jw.endArray();
    return allExact;
}

} // namespace

int
main()
{
    std::vector<Workload> workloads = {makeSyncStall(),
                                       makeRefreshStorm()};

    bool allExact = true;
    JsonWriter jw;
    jw.field("bench", "micro_fastforward");
    jw.field("host_cores", std::max(1u, std::thread::hardware_concurrency()));
    jw.key("workloads");
    jw.beginArray();

    for (const Workload &w : workloads) {
        // Correctness first: one dense + one fast-forward run must agree
        // on the final cycle count and on every stats counter.
        RunResult dense = runOnce(w, false);
        RunResult ff = runOnce(w, true);
        bool exact =
            dense.cycles == ff.cycles && dense.stats == ff.stats;
        allExact = allExact && exact;

        // Then timing: interleave the two variants and keep the minimum
        // of several reps (external load only ever inflates a sample).
        constexpr int kReps = 5;
        for (int i = 0; i < kReps; ++i) {
            dense.seconds =
                std::min(dense.seconds, runOnce(w, false).seconds);
            ff.seconds = std::min(ff.seconds, runOnce(w, true).seconds);
        }

        f64 denseCps = f64(dense.cycles) / dense.seconds;
        f64 ffCps = f64(ff.cycles) / ff.seconds;
        f64 speedup = dense.seconds / ff.seconds;
        f64 skipFrac = f64(ff.skipped) / f64(ff.cycles);

        std::printf("%-14s %9llu cycles | dense %8.3f ms (%6.1f "
                    "Mcyc/s) | ffwd %8.3f ms (%6.1f Mcyc/s) | "
                    "speedup %5.2fx | %4.1f%% skipped in %llu jumps | "
                    "%s\n",
                    w.name.c_str(), (unsigned long long)dense.cycles,
                    dense.seconds * 1e3, denseCps * 1e-6,
                    ff.seconds * 1e3, ffCps * 1e-6, speedup,
                    skipFrac * 100.0, (unsigned long long)ff.jumps,
                    exact ? "bit-exact" : "DIVERGED");

        jw.beginObject();
        jw.field("name", w.name);
        jw.field("cycles", u64(dense.cycles));
        jw.field("dense_wall_ms", dense.seconds * 1e3);
        jw.field("ffwd_wall_ms", ff.seconds * 1e3);
        jw.field("dense_cycles_per_sec", denseCps);
        jw.field("ffwd_cycles_per_sec", ffCps);
        jw.field("speedup", speedup);
        jw.field("skipped_cycles", ff.skipped);
        jw.field("jumps", ff.jumps);
        jw.field("skipped_fraction", skipFrac);
        jw.field("bit_exact", exact);
        jw.endObject();
    }

    jw.endArray();
    allExact = runTableII(jw) && allExact;
    jw.field("bit_exact", allExact);
    std::ofstream("BENCH_hotloop.json") << jw.finish() << "\n";

    if (!allExact) {
        std::printf("FAIL: fast-forward diverged from dense ticking\n");
        return 3;
    }
    std::printf("PASS\n");
    return 0;
}
