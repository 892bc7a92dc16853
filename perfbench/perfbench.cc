/**
 * @file
 * The repository benchmark (README.md in this directory).  Runs one
 * workload for a fixed host-time budget and prints, as its last line,
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   ipim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE] [--commit SHA]
 *
 * Every layer is timed from outside, around calls into its public API
 * (makeBenchmark, compilePipeline, verifyDevice, launchOnDevice,
 * funcLaunchOnDevice, generateWorkload, FleetServer::run), and its work
 * is read from the counts those calls return.  --trace 0 reports the
 * end-to-end metrics; --trace 1 additionally runs traced passes with
 * the span recorder below and reports the per-layer metrics.
 *
 * Outputs are checked against referenceRun outside the timed section,
 * and the deterministic figures of every pass (cycles, instruction
 * counts, DRAM/NoC counters, fleet counts and virtual-time latencies)
 * must be bit-identical across passes, traced or not.  Any mismatch
 * makes the result incorrect and the exit code nonzero.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/benchmarks.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/reference.h"
#include "fleet/fleet.h"
#include "func/func_runtime.h"
#include "isa/encoding.h"
#include "runtime/runtime.h"
#include "service/load_gen.h"
#include "verify/verifier.h"

using namespace ipim;

namespace {

using Clock = std::chrono::steady_clock;

f64
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<f64>(b - a).count();
}

f64
median(std::vector<f64> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

f64
geomean(const std::vector<f64> &v)
{
    f64 logSum = 0.0;
    for (f64 x : v)
        logSum += std::log(x);
    return v.empty() ? 0.0 : std::exp(logSum / f64(v.size()));
}

// --------------------------------------------------------------------
// Span recorder: one span per timed call, job, pass and set-up; kept in
// memory and written once as Chrome trace JSON.  Disabled, open() and
// close() cost one branch.

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on) : on_(on), origin_(Clock::now()) {}

    size_t size() const { return spans_.size(); }

    int
    open(const std::string &name, i64 job)
    {
        if (!on_)
            return -1;
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, Clock::now(), {}, parent, job});
        stack_.push_back(int(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[size_t(id)].end = Clock::now();
        stack_.pop_back();
    }

    /** Self seconds (duration minus child coverage) of spans [from, end)
     *  named @p name whose job passes @p keep. */
    f64
    selfSeconds(size_t from, const std::string &name,
                const std::function<bool(i64)> &keep = {}) const
    {
        std::vector<f64> self(spans_.size(), 0.0);
        for (size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            f64 d = secondsBetween(s.start, s.end);
            self[i] += d;
            if (s.parent >= int(from))
                self[size_t(s.parent)] -= d;
        }
        f64 total = 0.0;
        for (size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name && (!keep || keep(spans_[i].job)))
                total += self[i];
        return total;
    }

    void
    writeChrome(std::ostream &out) const
    {
        JsonWriter w;
        w.key("traceEvents").beginArray();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("ph", "X");
            w.field("ts", secondsBetween(origin_, s.start) * 1e6);
            w.field("dur", secondsBetween(s.start, s.end) * 1e6);
            w.field("pid", u64(1));
            w.field("tid", u64(1));
            w.key("args").beginObject();
            w.field("id", u64(i));
            w.field("parent", i64(s.parent));
            w.field("job", s.job);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        out << w.finish() << "\n";
    }

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start, end;
        int parent = -1;
        i64 job = -1;
    };

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, const std::string &name, i64 job = -1)
        : rec_(rec), id_(rec.open(name, job))
    {
    }
    ~SpanScope() { rec_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Time one call into a layer: a span when tracing, seconds always. */
template <typename F>
auto
timed(SpanRecorder &rec, const char *layer, i64 job, f64 &seconds, F &&fn)
{
    SpanScope span(rec, layer, job);
    Clock::time_point t0 = Clock::now();
    auto result = fn();
    seconds += secondsBetween(t0, Clock::now());
    return result;
}

// --------------------------------------------------------------------
// Workloads.

using Figures = std::map<std::string, f64>;

/** @p name from @p f, 0 when no pass recorded it (every job failed). */
f64
figure(const Figures &f, const std::string &name)
{
    auto it = f.find(name);
    return it == f.end() ? 0.0 : it->second;
}

/** What one timed pass produced. */
struct PassResult
{
    f64 wallS = 0.0;
    std::vector<f64> jobMs;   ///< host ms per job (geomean source)
    Figures det;              ///< deterministic figures, compared bitwise
    f64 minstPerS = 0.0;      ///< model instructions per host second
    u64 attempted = 0;
    u64 failed = 0;
    size_t firstSpan = 0;     ///< recorder index at pass start
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs, devices and traces for seed @p seed. */
    virtual void setup(u64 seed, SpanRecorder &rec) = 0;

    /** Run one timed pass; checks its outputs after the clock stops. */
    virtual PassResult pass(SpanRecorder &rec) = 0;

    /** A pass consumes its set-up (fleet: the FleetServer's caches). */
    virtual bool freshSetupPerPass() const { return false; }

    /** Per-layer figures from a traced pass's spans. */
    virtual void layerFigures(const SpanRecorder &rec,
                              const PassResult &r, Figures &out) const = 0;

    f64 checkSeconds = 0.0; ///< reference evaluation, all passes
    f64 makeSeconds = 0.0;  ///< makeBenchmark time of the last set-up
    f64 loadGenSeconds = 0.0;

  protected:
    /** Reference output for one (app, input seed), computed once. */
    const Image &
    reference(SpanRecorder &rec, const BenchmarkApp &app, u64 inputSeed)
    {
        auto key = std::make_pair(app.name, inputSeed);
        auto it = refs_.find(key);
        if (it == refs_.end()) {
            f64 s = 0.0;
            Image ref = timed(rec, "check.reference", -1, s, [&] {
                return referenceRun(app.def, app.inputs);
            });
            checkSeconds += s;
            it = refs_.emplace(key, std::move(ref)).first;
        }
        return it->second;
    }

    static bool
    samePixels(const Image &a, const Image &b)
    {
        return a.width() == b.width() && a.height() == b.height() &&
               a.maxAbsDiff(b) == 0.0f;
    }

  private:
    std::map<std::pair<std::string, u64>, Image> refs_;
};

/** Input seed of the @p rep-th job of app number @p app. */
u64
inputSeed(u64 seed, size_t app, u32 rep)
{
    return splitMix64(splitMix64(seed) ^ (u64(app) << 8 | rep));
}

/** Static properties of one compiled pipeline (compiler.* counts). */
void
addProgramFigures(const CompiledPipeline &p, Figures &det)
{
    u64 vsm = p.cfg.vsmBytes;
    f64 maxKb = det["compiler.max_vault_prog_kb"];
    for (const CompiledKernel &k : p.kernels) {
        std::unordered_set<std::string> distinct;
        for (const auto &prog : k.perVault) {
            u64 size = u64(prog.size()) * kInstBytes;
            maxKb = std::max(maxKb, f64(size) / 1024.0);
            if (size > vsm)
                det["compiler.vsm_overflow_programs"] += 1;
            std::vector<u8> bytes = encodeProgram(prog);
            distinct.emplace(bytes.begin(), bytes.end());
        }
        det["compiler.programs"] += f64(k.perVault.size());
        det["compiler.distinct_programs"] += f64(distinct.size());
        det["compiler.spilled_regs"] += k.backend.spilledRegs;
    }
    det["compiler.max_vault_prog_kb"] = maxKb;
}

/** One compile-and-run job of the single-device workloads. */
struct Job
{
    size_t app;     ///< index into the workload's app list
    u64 seed;       ///< input seed
    BenchmarkApp bench;
};

/**
 * Shared shape of sim_single_stage and compile_multi_stage: a fixed job
 * list, each job compiled then executed on one device built in set-up.
 */
class JobWorkload : public Workload
{
  public:
    JobWorkload(std::vector<std::string> apps, std::vector<u32> reps,
                int w, int h)
        : apps_(std::move(apps)), reps_(std::move(reps)), w_(w), h_(h)
    {
    }

    void
    setup(u64 seed, SpanRecorder &rec) override
    {
        SpanScope span(rec, "setup");
        jobs_.clear();
        makeSeconds = 0.0;
        for (size_t a = 0; a < apps_.size(); ++a)
            for (u32 r = 0; r < reps_[a]; ++r) {
                u64 s = inputSeed(seed, a, r);
                jobs_.push_back({a, s, timed(rec, "apps.make", -1,
                                             makeSeconds, [&] {
                                                 return makeBenchmark(
                                                     apps_[a], w_, h_, s);
                                             })});
            }
        buildDevice();
    }

    PassResult
    pass(SpanRecorder &rec) override
    {
        PassResult r;
        r.firstSpan = rec.size();
        std::vector<Image> outputs(jobs_.size());
        std::vector<bool> threw(jobs_.size(), false);
        std::vector<CompiledPipeline> compiled(jobs_.size());
        Figures det;
        Clock::time_point t0 = Clock::now();
        {
            SpanScope passSpan(rec, "pass");
            for (size_t j = 0; j < jobs_.size(); ++j) {
                SpanScope jobSpan(rec, "job", i64(j));
                Clock::time_point j0 = Clock::now();
                try {
                    outputs[j] = runJob(rec, j, compiled[j], det);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "job %zu (%s) threw: %s\n", j,
                                 apps_[jobs_[j].app].c_str(), e.what());
                    threw[j] = true;
                }
                r.jobMs.push_back(secondsBetween(j0, Clock::now()) * 1e3);
            }
        }
        r.wallS = secondsBetween(t0, Clock::now());

        // Outside the timed section: pixels against the reference, and
        // the static program figures of one compile per app.
        std::set<size_t> seenApp;
        for (size_t j = 0; j < jobs_.size(); ++j) {
            ++r.attempted;
            const Job &job = jobs_[j];
            if (threw[j] ||
                !samePixels(outputs[j],
                            reference(rec, job.bench, job.seed))) {
                ++r.failed;
                continue;
            }
            det["code_kinsts"] += f64(compiled[j].totalInstructions()) / 1e3;
            if (seenApp.insert(job.app).second)
                addProgramFigures(compiled[j], det);
        }
        LatencyHistogram lat;
        for (f64 c : modelCycles_)
            lat.add(c / 1e3); // 1 cycle == 1 ns
        modelCycles_.clear();
        det["model_p50_us"] = lat.percentile(50);
        det["model_p99_us"] = lat.percentile(99);
        r.det = std::move(det);
        finishPass(r);
        return r;
    }

    void
    layerFigures(const SpanRecorder &rec, const PassResult &r,
                 Figures &out) const override
    {
        const std::string launch = launchLayer() + std::string(".launch");
        for (size_t a = 0; a < apps_.size(); ++a) {
            auto ofApp = [&](i64 job) {
                return job >= 0 && jobs_[size_t(job)].app == a;
            };
            out["compiler.compile_ms." + apps_[a]] =
                rec.selfSeconds(r.firstSpan, "compiler.compile", ofApp) *
                1e3 / reps_[a];
            out[launch + "_ms." + apps_[a]] =
                rec.selfSeconds(r.firstSpan, launch, ofApp) * 1e3 /
                reps_[a];
        }
        f64 compileS = rec.selfSeconds(r.firstSpan, "compiler.compile");
        f64 verifyS = rec.selfSeconds(r.firstSpan, "verify.verify");
        f64 launchS = rec.selfSeconds(r.firstSpan, launch);
        out["compiler.compile_ms"] = compileS * 1e3;
        out["compiler.insts_per_ms"] =
            figure(r.det, "code_kinsts") * 1e3 / (compileS * 1e3);
        out["verify.verify_ms"] = verifyS * 1e3;
        if (verifyS > 0)
            out["verify.insts_per_ms"] =
                figure(r.det, "verify.insts") / (verifyS * 1e3);
        out[launch + "_ms"] = launchS * 1e3;
        launchFigures(launchS, r, out);
    }

  protected:
    virtual void buildDevice() = 0;
    /** Layer whose launch call runs the job: "runtime" or "func". */
    virtual const char *launchLayer() const = 0;
    /** Compile, (verify), execute job @p j; returns its output. */
    virtual Image runJob(SpanRecorder &rec, size_t j,
                         CompiledPipeline &compiled, Figures &det) = 0;
    virtual void finishPass(PassResult &r) = 0;
    virtual void launchFigures(f64 launchS, const PassResult &r,
                               Figures &out) const = 0;

    CompiledPipeline
    compile(SpanRecorder &rec, size_t j)
    {
        f64 s = 0.0;
        return timed(rec, "compiler.compile", i64(j), s, [&] {
            return compilePipeline(jobs_[j].bench.def, hw_);
        });
    }

    std::vector<std::string> apps_;
    std::vector<u32> reps_;
    int w_, h_;
    HardwareConfig hw_;
    std::vector<Job> jobs_;
    std::vector<f64> modelCycles_; ///< per job, this pass
};

/** Single-stage apps on the cycle simulator, fast-forward on. */
class SimSingleStage : public JobWorkload
{
  public:
    SimSingleStage()
        // Histogram's device-level reduction costs the same ~9 s of host
        // time at any image size, so it runs on one input seed per pass.
        : JobWorkload({"Brighten", "Blur", "Downsample", "Upsample",
                       "Shift", "Histogram"},
                      {2, 2, 2, 2, 2, 1}, 256, 128)
    {
        hw_.cubes = 2; // 2 x 16 vaults x 8 PGs x 4 PEs
    }

  protected:
    // One simulation thread: it runs the same quantum/barrier engine
    // inline.  With setThreads(2) a pass took 12 s to 40 s on a shared
    // 4-core host, because every barrier hand-off waits on the host's
    // scheduler; with one thread it stayed within a few percent.
    void
    buildDevice() override
    {
        dev_ = std::make_unique<Device>(hw_);
        dev_->setFastForward(true);
    }

    const char *launchLayer() const override { return "runtime"; }

    Image
    runJob(SpanRecorder &rec, size_t j, CompiledPipeline &compiled,
           Figures &det) override
    {
        compiled = compile(rec, j);
        f64 s = 0.0;
        LaunchResult res = timed(rec, "runtime.launch", i64(j), s, [&] {
            return launchOnDevice(*dev_, compiled, jobs_[j].bench.inputs);
        });
        const StatsRegistry &st = dev_->stats();
        det["model_cycles"] += f64(res.cycles);
        det["sim.issued_insts"] += f64(res.totalIssued);
        det["sim.ffwd_jumps"] += f64(dev_->ffwdJumps());
        det["sim.ffwd_skipped_cycles"] += f64(dev_->ffwdSkippedCycles());
        det["dram.act"] += st.get("dram.act");
        det["dram.row_hits"] += st.get("dram.rowHit");
        det["dram.row_misses"] += st.get("dram.rowMiss");
        det["noc.hops"] += st.get("noc.hops");
        modelCycles_.push_back(f64(res.cycles));
        return std::move(res.output);
    }

    void
    finishPass(PassResult &r) override
    {
        Figures &d = r.det;
        d["sim.ffwd_skip_ratio"] =
            d["sim.ffwd_skipped_cycles"] / d["model_cycles"];
        d["dram.row_hit_ratio"] =
            d["dram.row_hits"] / (d["dram.row_hits"] + d["dram.row_misses"]);
        r.minstPerS = d["sim.issued_insts"] / r.wallS / 1e6;
    }

    void
    launchFigures(f64 launchS, const PassResult &r,
                  Figures &out) const override
    {
        out["sim.kcycles_per_s"] = figure(r.det, "model_cycles") / 1e3 / launchS;
    }

  private:
    std::unique_ptr<Device> dev_;
};

/** Multi-stage apps: compile, verify every kernel, interpret. */
class CompileMultiStage : public JobWorkload
{
  public:
    CompileMultiStage()
        : JobWorkload({"Interpolate", "LocalLaplacian", "StencilChain",
                       "BilateralGrid"},
                      {1, 1, 1, 1}, 96, 48)
    {
        hw_.cubes = 1; // one full cube: 16 vaults x 8 PGs x 4 PEs
    }

  protected:
    void buildDevice() override { dev_ = std::make_unique<FuncDevice>(hw_); }

    const char *launchLayer() const override { return "func"; }

    Image
    runJob(SpanRecorder &rec, size_t j, CompiledPipeline &compiled,
           Figures &det) override
    {
        compiled = compile(rec, j);
        for (const CompiledKernel &k : compiled.kernels) {
            f64 s = 0.0;
            VerifyReport rep = timed(rec, "verify.verify", i64(j), s, [&] {
                return verifyDevice(hw_, k.perVault);
            });
            if (!rep.pass())
                fatal("kernel '", k.stage, "' failed verification");
            for (const auto &prog : k.perVault)
                det["verify.insts"] += f64(prog.size());
        }
        f64 s = 0.0;
        FuncLaunchResult res = timed(rec, "func.launch", i64(j), s, [&] {
            return funcLaunchOnDevice(*dev_, compiled,
                                      jobs_[j].bench.inputs);
        });
        det["model_cycles"] += res.estimatedCycles;
        det["func.executed_insts"] += f64(res.executedInsts);
        modelCycles_.push_back(res.estimatedCycles);
        return std::move(res.output);
    }

    void
    finishPass(PassResult &r) override
    {
        r.minstPerS = r.det["func.executed_insts"] / r.wallS / 1e6;
    }

    void
    launchFigures(f64 launchS, const PassResult &r,
                  Figures &out) const override
    {
        out["func.executed_insts"] = figure(r.det, "func.executed_insts");
        out["func.minst_per_s"] =
            figure(r.det, "func.executed_insts") / launchS / 1e6;
    }

  private:
    std::unique_ptr<FuncDevice> dev_;
};

/** One FleetServer::run over an open-loop multi-tenant trace. */
class FleetMixed : public Workload
{
  public:
    FleetMixed()
    {
        cfg_.hw.cubes = 2; // serve's default geometry
        cfg_.hw.vaultsPerCube = 4;
        cfg_.hw.pgsPerVault = 2;
        cfg_.hw.pesPerPg = 2;
        cfg_.devices = 4;
        cfg_.width = 128;
        cfg_.height = 64;
        cfg_.backend = "func";
        cfg_.router = "affinity";
        cfg_.batching = true;
        cfg_.preempt = true;
        cfg_.shedP99Cycles = kSloCycles;
        cfg_.keepOutputs = true;
        cfg_.tenants = {{"gold", 4, 1, 1}, {"silver", 2, 0, 2},
                        {"bronze", 1, 0, 3}};
        spec_.tenants = cfg_.tenants;
        spec_.shape = TraceShape::kPoisson;
    }

    bool freshSetupPerPass() const override { return true; }

    void
    setup(u64 seed, SpanRecorder &rec) override
    {
        SpanScope span(rec, "setup");
        // The trace is stratified by pipeline: one Poisson stream of
        // kRequests / 8 requests at kRate / 8 per pipeline, merged by
        // arrival.  The superposition is a Poisson stream at kRate, and a
        // seed changes arrival times and pixels but not the request mix,
        // which would otherwise dominate the host time of a pass.
        loadGenSeconds = 0.0;
        reqs_.clear();
        for (size_t p = 0; p < kPipelines.size(); ++p) {
            spec_.pipelines = {kPipelines[p]};
            spec_.requests = kRequests / u32(kPipelines.size());
            spec_.ratePerSec = kRate / f64(kPipelines.size());
            spec_.seed = splitMix64(seed ^ (u64(p) << 32));
            std::vector<ServeRequest> part =
                timed(rec, "service.load_gen", -1, loadGenSeconds,
                      [&] { return generateWorkload(spec_); });
            reqs_.insert(reqs_.end(), part.begin(), part.end());
        }
        std::stable_sort(reqs_.begin(), reqs_.end(),
                         [](const ServeRequest &a, const ServeRequest &b) {
                             return a.arrival < b.arrival;
                         });
        for (size_t i = 0; i < reqs_.size(); ++i)
            reqs_[i].id = i;

        // The checked subset: the first kChecksPerPipeline requests of
        // every pipeline.
        checkApps_.clear();
        makeSeconds = 0.0;
        std::map<std::string, u32> perPipeline;
        for (const ServeRequest &q : reqs_)
            if (perPipeline[q.pipeline]++ < kChecksPerPipeline)
                checkApps_.emplace(
                    q.id, timed(rec, "apps.make", -1, makeSeconds, [&] {
                        return makeBenchmark(q.pipeline, cfg_.width,
                                             cfg_.height, q.inputSeed);
                    }));
        server_ = std::make_unique<FleetServer>(cfg_);
    }

    PassResult
    pass(SpanRecorder &rec) override
    {
        PassResult r;
        r.firstSpan = rec.size();
        FleetReport rep;
        f64 runS = 0.0;
        Clock::time_point t0 = Clock::now();
        {
            SpanScope passSpan(rec, "pass");
            SpanScope jobSpan(rec, "job", 0);
            try {
                rep = timed(rec, "fleet.run", 0, runS,
                            [&] { return server_->run(reqs_); });
            } catch (const std::exception &e) {
                std::fprintf(stderr, "fleet run threw: %s\n", e.what());
                r.failed = reqs_.size();
            }
        }
        r.wallS = secondsBetween(t0, Clock::now());
        r.jobMs.push_back(r.wallS * 1e3);
        server_.reset(); // its program caches are warm now

        u64 offered = reqs_.size();
        r.attempted = offered;
        if (r.failed)
            return r;
        if (rep.completed + rep.shedTotal != offered ||
            rep.records.size() != offered) {
            std::fprintf(stderr,
                         "fleet accounting: %llu completed + %llu shed "
                         "!= %llu offered\n",
                         (unsigned long long)rep.completed,
                         (unsigned long long)rep.shedTotal,
                         (unsigned long long)offered);
            r.failed += offered > rep.completed + rep.shedTotal
                            ? offered - rep.completed - rep.shedTotal
                            : 1;
        }
        u64 checked = 0;
        for (const auto &[id, app] : checkApps_) {
            if (id >= rep.records.size())
                continue;
            const FleetRequestRecord &rec0 = rep.records[id];
            if (rec0.shed)
                continue;
            ++checked;
            if (!samePixels(rec0.output,
                            reference(rec, app, reqs_[id].inputSeed)))
                ++r.failed;
        }

        Figures &d = r.det;
        u64 inSlo = 0;
        f64 execCycles = 0.0;
        for (const FleetRequestRecord &q : rep.records)
            if (!q.shed) {
                execCycles += f64(q.execCycles);
                if (q.totalCycles() <= kSloCycles)
                    ++inSlo;
            }
        u64 hits = 0, compiles = 0;
        for (const auto &dr : rep.devices) {
            hits += dr.cacheHits;
            compiles += dr.cacheCompiles;
        }
        d["model_cycles"] = execCycles;
        d["model_p50_us"] = rep.totalLatency.percentile(50) / 1e3;
        d["model_p99_us"] = rep.totalLatency.percentile(99) / 1e3;
        d["slo_attainment"] = f64(inSlo) / f64(offered);
        d["fleet.completed"] = f64(rep.completed);
        d["fleet.shed"] = f64(rep.shedTotal);
        d["fleet.preemptions"] = f64(rep.preemptions);
        d["fleet.batches"] = f64(rep.batches);
        d["fleet.batched_ratio"] =
            f64(rep.batchedRequests) / f64(std::max<u64>(rep.completed, 1));
        d["fleet.cache_hit_ratio"] =
            f64(hits) / f64(std::max<u64>(hits + compiles, 1));
        d["fleet.cache_compiles"] = f64(compiles);
        d["fleet.queue_p99_us"] = rep.queueLatency.percentile(99) / 1e3;
        d["fleet.exec_p50_us"] = rep.execLatency.percentile(50) / 1e3;
        d["fleet.makespan_ms"] = f64(rep.makespan) / 1e6;
        d["fleet.checked_outputs"] = f64(checked);
        return r;
    }

    void
    layerFigures(const SpanRecorder &rec, const PassResult &r,
                 Figures &out) const override
    {
        f64 runS = rec.selfSeconds(r.firstSpan, "fleet.run");
        out["fleet.run_s"] = runS;
        out["fleet.host_us_per_request"] = runS * 1e6 / f64(reqs_.size());
    }

  private:
    static inline const std::vector<std::string> kPipelines = {
        "Brighten", "Blur",      "Downsample",  "Upsample",
        "Shift",    "Histogram", "Interpolate", "LocalLaplacian"};
    static constexpr u32 kRequests = 2000;
    static constexpr f64 kRate = 40e3; // requests per virtual second
    static constexpr u32 kChecksPerPipeline = 6;
    static constexpr Cycle kSloCycles = 500'000; // 0.5 ms at 1 GHz

    FleetConfig cfg_;
    WorkloadSpec spec_;
    std::vector<ServeRequest> reqs_;
    std::map<u64, BenchmarkApp> checkApps_;
    std::unique_ptr<FleetServer> server_;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sim_single_stage")
        return std::make_unique<SimSingleStage>();
    if (name == "compile_multi_stage")
        return std::make_unique<CompileMultiStage>();
    if (name == "fleet_mixed")
        return std::make_unique<FleetMixed>();
    return nullptr;
}

// --------------------------------------------------------------------
// Command line and main loop.

struct Args
{
    std::string workload;
    u64 seed = 1;
    f64 seconds = 10;
    bool trace = false;
    std::string traceOut;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: ipim_perfbench --workload "
                 "sim_single_stage|compile_multi_stage|fleet_mixed "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--commit SHA]\n",
                 msg);
    std::exit(2);
}

/** Apply one `--key value` pair; throws std::logic_error on a bad number. */
void
parseArg(Args &a, const std::string &k, const std::string &v)
{
    if (k == "--workload")
        a.workload = v;
    else if (k == "--seed")
        a.seed = std::stoull(v);
    else if (k == "--seconds")
        a.seconds = std::stod(v);
    else if (k == "--trace")
        a.trace = v == "1";
    else if (k == "--trace-out")
        a.traceOut = v;
    else if (k == "--commit")
        a.commit = v;
    else
        usage(("unknown argument " + k).c_str());
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + k).c_str());
        std::string v = argv[++i];
        try {
            parseArg(a, k, v);
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Names and units of the reported metrics (README.md). */
const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},           {"wall_s", "s"},
        {"job_ms_geomean", "ms"},   {"peak_rss_mb", "MB"},
        {"model_cycles", "cycles"},
    };
    return m;
}

std::vector<std::pair<std::string, std::string>>
perLayerMetrics()
{
    std::vector<std::pair<std::string, std::string>> m = {
        {"model_p50_us", "us_virtual"},
        {"model_p99_us", "us_virtual"},
        {"sim_minst_per_s", "Minst/s"},
        {"code_kinsts", "kinst"},
        {"slo_attainment", "fraction"},
        {"error_rate", "fraction"},
        {"apps.make_ms", "ms"},
        {"service.load_gen_ms", "ms"},
        {"compiler.compile_ms", "ms"},
    };
    for (const std::string &app : allBenchmarkNames())
        m.push_back({"compiler.compile_ms." + app, "ms"});
    const char *const rest[][2] = {
        {"compiler.insts_per_ms", "inst/ms"},
        {"compiler.max_vault_prog_kb", "KiB"},
        {"compiler.vsm_overflow_programs", "count"},
        {"compiler.distinct_program_ratio", "fraction"},
        {"compiler.spilled_regs", "count"},
        {"verify.verify_ms", "ms"},
        {"verify.insts_per_ms", "inst/ms"},
        {"runtime.launch_ms", "ms"},
    };
    for (const auto &kv : rest)
        m.push_back({kv[0], kv[1]});
    for (const char *app : {"Brighten", "Blur", "Downsample", "Upsample",
                            "Shift", "Histogram"})
        m.push_back({std::string("runtime.launch_ms.") + app, "ms"});
    const char *const tail[][2] = {
        {"sim.kcycles_per_s", "kcycles/s"},
        {"sim.issued_insts", "inst"},
        {"sim.ffwd_jumps", "count"},
        {"sim.ffwd_skip_ratio", "fraction"},
        {"dram.row_hit_ratio", "fraction"},
        {"dram.act", "count"},
        {"noc.hops", "count"},
        {"func.launch_ms", "ms"},
        {"func.executed_insts", "inst"},
        {"func.minst_per_s", "Minst/s"},
        {"fleet.run_s", "s"},
        {"fleet.host_us_per_request", "us"},
        {"fleet.completed", "count"},
        {"fleet.shed", "count"},
        {"fleet.preemptions", "count"},
        {"fleet.batches", "count"},
        {"fleet.batched_ratio", "fraction"},
        {"fleet.cache_hit_ratio", "fraction"},
        {"fleet.cache_compiles", "count"},
        {"fleet.queue_p99_us", "us_virtual"},
        {"fleet.exec_p50_us", "us_virtual"},
        {"fleet.makespan_ms", "ms_virtual"},
        {"check.reference_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const auto &kv : tail)
        m.push_back({kv[0], kv[1]});
    return m;
}

f64
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return f64(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/** First deterministic figure that differs between @p a and @p b. */
std::string
firstDifference(const Figures &a, const Figures &b)
{
    for (const auto &[k, v] : a) {
        auto it = b.find(k);
        if (it == b.end() || std::memcmp(&v, &it->second, sizeof v) != 0)
            return k;
    }
    return a.size() == b.size() ? "" : "(key set)";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(args.workload);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());

    // Every workload runs on one host thread (see SimSingleStage).
    std::printf("provenance: {\"host_cores\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\", "
                "\"workload\": \"%s\", \"threads\": 1, \"seed\": %llu}\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, args.commit.c_str(),
                args.workload.c_str(), (unsigned long long)args.seed);
    std::fflush(stdout);

    SpanRecorder plain(false);
    SpanRecorder traced(true);

    // Set-up, repeated: the median is setup_s.  Cheap set-ups repeat
    // until they have filled kSetupBudgetS.  A workload whose pass
    // consumes its set-up (fleet) is set up again before every pass,
    // and those set-ups are samples too.  The last set-up is traced.
    constexpr size_t kSetupMinReps = 5, kSetupMaxReps = 201;
    constexpr f64 kSetupBudgetS = 1.0;
    std::vector<f64> setupS;
    auto setUp = [&](SpanRecorder &rec) {
        Clock::time_point t0 = Clock::now();
        wl->setup(args.seed, rec);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    };
    f64 setupTotal = 0.0;
    while (setupS.size() + 1 < kSetupMinReps ||
           (setupS.size() + 1 < kSetupMaxReps &&
            setupTotal < kSetupBudgetS)) {
        setUp(plain);
        setupTotal += setupS.back();
    }
    setUp(args.trace ? traced : plain);
    f64 makeMs = wl->makeSeconds * 1e3;
    f64 loadGenMs = wl->loadGenSeconds * 1e3;

    // Timed passes until their time fills the budget (at least one of
    // each kind); with --trace 1 the second half runs traced passes.
    // Checks and per-pass set-ups are outside the budget.  Peak memory is
    // read after the first pass, so it does not depend on how many
    // passes fit.
    std::vector<PassResult> untracedPasses, tracedPasses;
    bool needSetup = false;
    f64 measured = 0.0;
    f64 peakRss = 0.0;
    auto runPasses = [&](SpanRecorder &rec, std::vector<PassResult> &out,
                         f64 budget) {
        while (out.empty() ||
               measured + out.back().wallS <= budget) {
            if (needSetup)
                setUp(rec);
            out.push_back(wl->pass(rec));
            measured += out.back().wallS;
            needSetup = wl->freshSetupPerPass();
            if (peakRss == 0.0)
                peakRss = peakRssMb();
        }
    };
    runPasses(plain, untracedPasses,
              args.trace ? args.seconds / 2 : args.seconds);
    if (args.trace)
        runPasses(traced, tracedPasses, args.seconds);

    // Correctness and determinism over every pass.
    u64 attempted = 0, failed = 0;
    std::vector<const PassResult *> all;
    for (const auto &p : untracedPasses)
        all.push_back(&p);
    for (const auto &p : tracedPasses)
        all.push_back(&p);
    bool deterministic = true;
    for (const PassResult *p : all) {
        attempted += p->attempted;
        failed += p->failed;
        std::string diff = firstDifference(all.front()->det, p->det);
        if (!diff.empty()) {
            std::fprintf(stderr, "determinism: '%s' differs between "
                                 "passes\n", diff.c_str());
            deterministic = false;
        }
    }
    bool correct = failed == 0 && deterministic && attempted > 0;

    // End-to-end figures come from the untraced passes only.
    const Figures &det = untracedPasses.front().det;
    std::vector<f64> wall, jobGeo, minst;
    for (const PassResult &p : untracedPasses) {
        wall.push_back(p.wallS);
        jobGeo.push_back(geomean(p.jobMs));
        if (p.minstPerS > 0)
            minst.push_back(p.minstPerS);
    }
    Figures e2e = {
        {"setup_s", median(setupS)},
        {"wall_s", median(wall)},
        {"job_ms_geomean", median(jobGeo)},
        {"peak_rss_mb", peakRss},
        {"model_cycles", figure(det, "model_cycles")},
    };

    Figures layers;
    if (args.trace) {
        // Per-layer host figures: medians over the traced passes.
        std::map<std::string, std::vector<f64>> samples;
        for (const PassResult &p : tracedPasses) {
            Figures f;
            wl->layerFigures(traced, p, f);
            for (const auto &[k, v] : f)
                samples[k].push_back(v);
        }
        for (auto &[k, v] : samples)
            layers[k] = median(v);
        for (const auto &[k, v] : det)
            if (!layers.count(k))
                layers[k] = v;
        std::vector<f64> tracedWall;
        for (const PassResult &p : tracedPasses)
            tracedWall.push_back(p.wallS);
        layers["trace.overhead_ratio"] =
            median(tracedWall) / median(wall) - 1.0;
        layers["sim_minst_per_s"] = median(minst);
        layers["error_rate"] = f64(failed) / f64(attempted);
        layers["apps.make_ms"] = makeMs;
        layers["service.load_gen_ms"] = loadGenMs;
        layers["check.reference_ms"] = wl->checkSeconds * 1e3;
        if (layers.count("compiler.programs"))
            layers["compiler.distinct_program_ratio"] =
                layers["compiler.distinct_programs"] /
                layers["compiler.programs"];
        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut, std::ios::binary);
            traced.writeChrome(out);
            if (!out)
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             args.traceOut.c_str());
        }
    }

    // Human-readable report, then the result line.
    std::printf("%s: %zu untraced + %zu traced passes, %llu attempted, "
                "%llu failed, deterministic=%s\n",
                args.workload.c_str(), untracedPasses.size(),
                tracedPasses.size(), (unsigned long long)attempted,
                (unsigned long long)failed, deterministic ? "yes" : "no");
    std::printf("  %-34s %16.6g %s\n", "error_rate",
                f64(failed) / f64(std::max<u64>(attempted, 1)), "fraction");
    if (!minst.empty())
        std::printf("  %-34s %16.6g %s\n", "sim_minst_per_s",
                    median(minst), "Minst/s");
    const char *const modelFigures[][2] = {
        {"code_kinsts", "kinst"},
        {"model_p50_us", "us_virtual"},
        {"model_p99_us", "us_virtual"},
        {"slo_attainment", "fraction"},
    };
    for (const auto &kv : modelFigures)
        if (det.count(kv[0]))
            std::printf("  %-34s %16.6g %s\n", kv[0], det.at(kv[0]), kv[1]);
    for (const auto &[name, unit] : endToEndMetrics())
        std::printf("  %-34s %16.6g %s\n", name.c_str(), e2e.at(name),
                    unit.c_str());

    JsonWriter w;
    w.field("correct", correct);
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("metrics").beginObject();
    auto emit = [&](const std::string &name, const std::string &unit,
                    f64 value) {
        w.key(name).beginObject();
        w.field("value", value);
        w.field("unit", unit);
        w.endObject();
    };
    if (args.trace) {
        for (const auto &[name, unit] : perLayerMetrics()) {
            auto it = layers.find(name);
            emit(name, unit, it == layers.end() ? 0.0 : it->second);
        }
    } else {
        for (const auto &[name, unit] : endToEndMetrics())
            emit(name, unit, e2e.at(name));
    }
    w.endObject();
    std::printf("%s\n", w.finish().c_str());
    return correct ? 0 : 3;
}
