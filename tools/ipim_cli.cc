/**
 * ipim — command-line driver for the iPIM simulator.
 *
 * Compile and run any Table II benchmark (or list them), on any device
 * geometry, with any compiler-optimization setting, and report cycles,
 * throughput, instruction mix, DRAM behaviour, energy, and (optionally)
 * the disassembled kernels.  The `verify` subcommand runs the static
 * SIMB program verifier (src/verify) instead of the simulator.
 *
 * The `serve` subcommand runs the multi-tenant serving layer
 * (src/fleet): an open-loop request stream routed across one or more
 * devices and scheduled onto their cube partitions through the
 * compiled-program cache.
 *
 * Examples:
 *   ipim --list
 *   ipim --bench Blur --width 384 --height 216
 *   ipim --bench Histogram --ponb --sched fcfs --page close
 *   ipim --bench Shift --opts baseline1 --verify
 *   ipim --bench Brighten --dump-asm | less
 *   ipim --bench Blur --vaults 4 --pgs 2 --pes 2   # scaled-down device
 *   ipim --bench Blur --json           # machine-readable result
 *   ipim verify --all                  # statically check all benchmarks
 *   ipim verify --bench Blur --werror
 *   ipim verify --asm kernel.s         # check a hand-written program
 *   ipim verify --all --json           # machine-readable findings
 *   ipim analyze --bench Blur          # CFG/conflict/cost analysis
 *   ipim analyze --all --json
 *   ipim analyze --bench Blur --dot cfg-   # cfg-<stage>.dot per kernel
 *   ipim serve --bench Blur,Brighten --rate 40000 --requests 200 \
 *              --sched sjf             # space-shared serving run
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/conflict.h"
#include "analysis/cost.h"
#include "apps/benchmarks.h"
#include "baseline/gpu_model.h"
#include "common/json.h"
#include "compiler/reference.h"
#include "energy/energy_model.h"
#include "func/func_runtime.h"
#include "isa/assembler.h"
#include "metrics/metrics.h"
#include "metrics/profile.h"
#include "runtime/runtime.h"
#include "fleet/events.h"
#include "fleet/fleet.h"
#include "fleet/observer.h"
#include "trace/report.h"
#include "trace/trace.h"
#include "verify/verifier.h"

using namespace ipim;

namespace {

struct Options
{
    std::string bench = "Blur";
    int width = 256;
    int height = 128;
    u32 cubes = 1;
    u32 vaults = 16;
    u32 pgs = 8;
    u32 pes = 4;
    bool ponb = false;
    std::string sched = "frfcfs";
    std::string page = "open";
    std::string opts = "opt";
    bool verify = false;
    bool dumpAsm = false;
    bool list = false;
    bool gpu = false;
    bool json = false;
    bool fastForward = true; ///< --no-fast-forward densely ticks
    u32 threads = 1;         ///< --threads N simulation worker threads
    /// Execution backend: "cycle" (cycle-accurate simulation) or
    /// "func" (functional interpreter + latency estimate).
    std::string backend = "cycle";
    // verify-subcommand only:
    bool verifyCmd = false;
    bool allBenches = false;
    bool werror = false;
    std::string asmFile;
    // analyze-subcommand only:
    bool analyzeCmd = false;
    std::string dotPrefix; ///< --dot PREFIX writes PREFIX<stage>.dot
    // tracing:
    std::string traceFile; ///< --trace FILE on run/serve
    bool traceCmd = false;
    std::string traceOut = "trace.json";
    std::string traceCsv;
    u32 traceWindows = 16;
    // profile-subcommand only:
    bool profileCmd = false;
    u64 metricsInterval = 1024; ///< --interval N (sampling period)
    // serve-subcommand only:
    bool serveCmd = false;
    std::string promFile; ///< --prom FILE (Prometheus snapshot)
    f64 rate = 20000.0; ///< requests per second of virtual time
    u32 requests = 200;
    u64 seed = 1;
    std::string servePolicy = "fifo";
    u32 cubesPerReq = 1;
    u32 fleetDevices = 1; ///< --devices N
    std::string routerPolicy = "rr";
    bool batch = false;
    u32 maxBatch = 0;
    u64 batchWindow = 2000; ///< --batch-window CYCLES
    bool preempt = true;  ///< --no-preempt disables
    f64 shedP99Ms = 0.0;  ///< --shed-p99-ms X (0 = no shedding)
    std::string tenants;  ///< --tenants name:weight:prio[:share],...
    std::string traceShape = "poisson";
    f64 burstDuty = 0.25;
    f64 burstOnMs = 0.5;
    f64 diurnalPeriodMs = 10.0;
    f64 diurnalAmplitude = 0.8;
    u32 cacheCap = 0;          ///< per-device program-cache entries
    u64 launchOverhead = 1000; ///< dispatcher cycles per launch
    // fleet observability (DESIGN.md Sec. 19):
    std::string eventsFile;  ///< --events FILE (decision log JSONL)
    std::string metricsFile; ///< --metrics FILE (sampled series JSON)
    // explain-subcommand only:
    bool explainCmd = false;
    u64 explainReq = ~u64(0); ///< --req ID (required)
};

void
usage()
{
    std::printf(
        "usage: ipim [--list] [--bench NAME] [--width N] [--height N]\n"
        "            [--cubes N] [--vaults N] [--pgs N] [--pes N]\n"
        "            [--ponb] [--sched frfcfs|fcfs] [--page open|close]\n"
        "            [--opts opt|baseline1..baseline4] [--verify]\n"
        "            [--gpu] [--dump-asm] [--json] [--trace FILE]\n"
        "            [--no-fast-forward] [--backend cycle|func]\n"
        "            [--threads N]\n"
        "       ipim verify [--bench NAME | --all | --asm FILE]\n"
        "            [--werror] [--json] [device/compiler flags as above]\n"
        "       ipim analyze [--bench NAME | --all | --asm FILE]\n"
        "            [--json] [--dot PREFIX]\n"
        "            [device/compiler flags as above]\n"
        "       ipim serve [--bench NAME[,NAME...]] [--rate R]\n"
        "            [--requests N] [--sched fifo|sjf]\n"
        "            [--cubes-per-req K] [--seed S]\n"
        "            [--json] [--trace FILE] [--prom FILE]\n"
        "            [--backend cycle|func]\n"
        "            [--devices N] [--router rr|least|hash|affinity]\n"
        "            [--batch] [--max-batch N] [--batch-window CYCLES]\n"
        "            [--no-preempt]\n"
        "            [--shed-p99-ms X] [--cache-cap N]\n"
        "            [--launch-overhead CYCLES]\n"
        "            [--events FILE] [--metrics FILE]\n"
        "            [--tenants NAME:WEIGHT:PRIO[:SHARE],...]\n"
        "            [--trace-shape poisson|bursty|diurnal]\n"
        "            [--burst-duty F] [--burst-on-ms X]\n"
        "            [--diurnal-period-ms X] [--diurnal-amplitude F]\n"
        "            [device/compiler flags as above]\n"
        "       ipim explain --req ID --events FILE\n"
        "       ipim trace [--bench NAME] [--out FILE] [--csv FILE]\n"
        "            [--windows N] [device/compiler flags as above]\n"
        "       ipim profile [--bench NAME] [--interval N] [--json]\n"
        "            [device/compiler flags as above]\n"
        "  serve defaults to a 2-cube 4x2x2 device at 128x64 unless\n"
        "  geometry/size flags are given; --rate is requests per second\n"
        "  of virtual time (1 cycle == 1 ns).\n"
        "  --trace / `ipim trace` write Chrome trace_event JSON; open it\n"
        "  in chrome://tracing or https://ui.perfetto.dev.\n"
        "  --no-fast-forward ticks every cycle densely instead of\n"
        "  skipping quiescent intervals; results are bit-exact either\n"
        "  way (DESIGN.md Sec. 13), it is only slower.\n"
        "  --threads N simulates cubes on N worker threads (clamped to\n"
        "  the cube count); cycles, stats, pixels, and traces are\n"
        "  bit-identical for every N (DESIGN.md Sec. 18) -- it is\n"
        "  purely a wall-clock knob.\n"
        "  --backend func runs the functional interpreter instead of\n"
        "  the cycle simulator: pixels are bit-exact with cycle mode,\n"
        "  cycle counts come from the static cost model's estimate\n"
        "  (DESIGN.md Sec. 16), and serving-scale runs go orders of\n"
        "  magnitude faster.\n"
        "  `ipim profile` runs one benchmark with the metrics sampler\n"
        "  attached and prints the per-vault cycle-accounting table,\n"
        "  the roofline check, and the inferred bottleneck; --json adds\n"
        "  the sampled time series (DESIGN.md Sec. 14).\n"
        "  serve --prom FILE writes a Prometheus text-exposition\n"
        "  snapshot of the serving SLOs.\n"
        "  serve runs the fleet layer (DESIGN.md Sec. 17): --devices N\n"
        "  (default 1) independent devices behind a router, with\n"
        "  per-tenant weighted fair share, priority preemption at kernel\n"
        "  boundaries, optional cross-request batching (--batch), and\n"
        "  p99-driven load shedding (--shed-p99-ms); --json emits the\n"
        "  ipim-serve-fleet-v1 schema.  --cubes-per-req K splits each\n"
        "  device into cubes/K partition slots (K = --cubes serves every\n"
        "  request on the whole device).  --launch-overhead 0 charges no\n"
        "  per-launch dispatcher cycles, the plain single-device model.\n"
        "  Fleet observability (DESIGN.md Sec. 19): --trace FILE writes\n"
        "  one merged multi-process Chrome trace (pid 0 = fleet,\n"
        "  pid 1+d = device d), --events FILE writes\n"
        "  the ipim-fleet-events-v1 decision log (JSONL: routing, shed,\n"
        "  batch, dispatch, preempt, complete records), and\n"
        "  --metrics FILE writes the per-slot sampled time series on\n"
        "  the fleet virtual timeline (cycle backend).  All three are\n"
        "  byte-deterministic for a fixed (config, seed) -- across\n"
        "  processes and every --threads value.\n"
        "  `ipim explain --req ID --events FILE` replays one request's\n"
        "  story from the decision log: admission, routing, batching or\n"
        "  shedding, preemptions, completion.\n"
        "  `ipim analyze` builds the CFG/dataflow analyses\n"
        "  (src/analysis), runs the cross-vault conflict proof, and\n"
        "  prints the static cost estimate per kernel; exit 3 when any\n"
        "  conflict is found.  --dot PREFIX writes the vault-0 CFG of\n"
        "  each kernel to PREFIX<stage>.dot.  verify/analyze --json\n"
        "  emit the stable schemas ipim-verify-v1 / ipim-analyze-v1\n"
        "  (documented in README.md).\n");
}

CompilerOptions
parseOpts(const std::string &name)
{
    if (name == "opt")
        return CompilerOptions::opt();
    if (name == "baseline1")
        return CompilerOptions::baseline1();
    if (name == "baseline2")
        return CompilerOptions::baseline2();
    if (name == "baseline3")
        return CompilerOptions::baseline3();
    if (name == "baseline4")
        return CompilerOptions::baseline4();
    fatal("unknown --opts value '", name, "'");
}

HardwareConfig
buildConfig(const Options &o)
{
    HardwareConfig cfg;
    cfg.cubes = o.cubes;
    cfg.vaultsPerCube = o.vaults;
    cfg.pgsPerVault = o.pgs;
    cfg.pesPerPg = o.pes;
    cfg.meshCols = o.vaults >= 4 ? 4 : o.vaults;
    cfg.processOnBaseDie = o.ponb;
    cfg.schedPolicy = o.sched == "fcfs" ? SchedPolicy::kFcfs
                                        : SchedPolicy::kFrFcfs;
    cfg.pagePolicy = o.page == "close" ? PagePolicy::kClosePage
                                       : PagePolicy::kOpenPage;
    cfg.validate();
    return cfg;
}

/** Print @p rep and return true when it passes. */
bool
reportResult(const VerifyReport &rep, bool werror)
{
    if (!rep.empty())
        std::printf("%s", rep.toString().c_str());
    return rep.pass(werror);
}

void
deviceJson(JsonWriter &j, const HardwareConfig &cfg)
{
    j.key("device").beginObject();
    j.field("cubes", cfg.cubes)
        .field("vaults", cfg.vaultsPerCube)
        .field("pgs", cfg.pgsPerVault)
        .field("pes", cfg.pesPerPg);
    j.endObject();
}

/**
 * One program entry of the ipim-verify-v1 schema: name, sizes, counts,
 * and the findings array (stable fields: rule, severity, vault, index,
 * message).
 */
void
verifyProgramJson(JsonWriter &j, const std::string &name, u64 insts,
                  size_t vaults, const VerifyReport &rep, bool werror)
{
    j.beginObject();
    j.field("name", name)
        .field("instructions", insts)
        .field("vaults", u64(vaults))
        .field("errors", u64(rep.errorCount()))
        .field("warnings", u64(rep.warningCount()))
        .field("pass", rep.pass(werror));
    j.key("findings").beginArray();
    for (const Diagnostic &d : rep.diagnostics()) {
        j.beginObject();
        j.field("rule", ruleId(d.rule))
            .field("severity", severityName(d.severity))
            .field("vault", d.vault)
            .field("index", d.index)
            .field("message", d.message);
        j.endObject();
    }
    j.endArray();
    j.endObject();
}

/** The `ipim verify` subcommand: static checks, no simulation. */
int
runVerifyCommand(const Options &o)
{
    HardwareConfig cfg = buildConfig(o);
    VerifierOptions vopts;
    vopts.warningsAsErrors = o.werror;

    JsonWriter j;
    if (o.json) {
        j.field("schema", "ipim-verify-v1").field("werror", o.werror);
        deviceJson(j, cfg);
        j.key("programs").beginArray();
    }
    bool allOk = true;

    if (!o.asmFile.empty()) {
        std::ifstream in(o.asmFile);
        if (!in)
            fatal("cannot open ", o.asmFile);
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<Instruction> prog = assemble(text.str());
        VerifyReport rep = verifyProgram(cfg, prog, vopts);
        allOk = rep.pass(o.werror);
        if (o.json) {
            verifyProgramJson(j, o.asmFile, prog.size(), 1, rep,
                              o.werror);
        } else {
            reportResult(rep, o.werror);
            std::printf("%s: %zu instructions -> %s\n",
                        o.asmFile.c_str(), prog.size(),
                        allOk ? "OK" : "REJECTED");
        }
    } else {
        std::vector<std::string> benches;
        if (o.allBenches)
            benches = allBenchmarkNames();
        else
            benches.push_back(o.bench);

        CompilerOptions copts = parseOpts(o.opts);
        for (const std::string &name : benches) {
            BenchmarkApp app = makeBenchmark(name, o.width, o.height);
            CompiledPipeline cp = compilePipeline(app.def, cfg, copts);
            for (const CompiledKernel &k : cp.kernels) {
                VerifyReport rep = verifyDevice(cfg, k.perVault, vopts);
                bool ok = rep.pass(o.werror);
                allOk = allOk && ok;
                if (o.json) {
                    verifyProgramJson(j, name + "/" + k.stage,
                                      k.backend.instructions,
                                      k.perVault.size(), rep, o.werror);
                    continue;
                }
                reportResult(rep, o.werror);
                std::printf("%s/%s: %llu insts over %zu vaults -> %s "
                            "(%zu errors, %zu warnings)\n",
                            name.c_str(), k.stage.c_str(),
                            (unsigned long long)k.backend.instructions,
                            k.perVault.size(), ok ? "OK" : "REJECTED",
                            rep.errorCount(), rep.warningCount());
            }
        }
    }
    if (o.json) {
        j.endArray();
        j.field("pass", allOk);
        std::printf("%s\n", j.finish().c_str());
    }
    return allOk ? 0 : 3;
}

/**
 * The `ipim analyze` subcommand: CFG construction, cross-vault
 * conflict proof, and the static cost model over compiled kernels (or
 * one assembled program), without simulating.
 */
int
runAnalyzeCommand(const Options &o)
{
    HardwareConfig cfg = buildConfig(o);

    JsonWriter j;
    if (o.json) {
        j.field("schema", "ipim-analyze-v1");
        deviceJson(j, cfg);
        j.key("programs").beginArray();
    }

    size_t totalFindings = 0;
    auto emitDot = [&](const std::string &stage, const Cfg &g) {
        if (o.dotPrefix.empty())
            return;
        std::string path = o.dotPrefix + stage + ".dot";
        std::ofstream out(path, std::ios::binary);
        if (!out)
            fatal("cannot open ", path);
        out << g.toDot(stage);
        if (!out)
            fatal("failed writing CFG dot to ", path);
        if (!o.json)
            std::printf("  cfg -> %s\n", path.c_str());
    };

    // Shared per-program reporting over (name, analyses, report, cost).
    auto report = [&](const std::string &name, u64 insts, size_t vaults,
                      const ProgramAnalysis &pa0,
                      const ConflictReport &rep, const CostEstimate &c) {
        totalFindings += rep.findings.size();
        const Cfg &g = *pa0.cfg;
        size_t nLoops = g.loops().size();
        if (o.json) {
            j.beginObject();
            j.field("name", name)
                .field("instructions", insts)
                .field("vaults", u64(vaults));
            j.key("cfg").beginObject();
            j.field("blocks", g.numBlocks())
                .field("loops", u64(nLoops))
                .field("segments", pa0.numSegments())
                .field("segmentable", pa0.segmentable);
            j.endObject();
            j.key("conflicts").beginObject();
            j.field("complete", rep.complete)
                .field("independent", rep.independent())
                .field("pairs_checked", rep.stats.pairsChecked)
                .field("proven_disjoint", rep.stats.provenDisjoint)
                .field("unproved", rep.stats.unproved)
                .field("segments", rep.stats.segments);
            j.key("findings").beginArray();
            for (const ConflictFinding &f : rep.findings) {
                j.beginObject();
                j.field("kind", conflictKindName(f.kind))
                    .field("vault", f.vault)
                    .field("index", f.index)
                    .field("other_vault", f.otherVault)
                    .field("other_index", f.otherIndex)
                    .field("segment", f.segment)
                    .field("message", f.message);
                j.endObject();
            }
            j.endArray();
            j.endObject();
            j.key("cost").beginObject();
            j.field("cycles", c.cycles)
                .field("dynamic_insts", c.dynamicInsts)
                .field("complete", c.complete);
            j.endObject();
            j.endObject();
            return;
        }
        std::printf("%s: %llu insts over %zu vaults | %d blocks, %zu "
                    "loops, %d segments | est %.0f cycles%s\n",
                    name.c_str(), (unsigned long long)insts, vaults,
                    g.numBlocks(), nLoops, pa0.numSegments(), c.cycles,
                    c.complete ? "" : " (lower bound)");
        std::printf("  conflicts: %zu findings | %llu pairs, %llu "
                    "disjoint, %llu unproved -> %s\n",
                    rep.findings.size(),
                    (unsigned long long)rep.stats.pairsChecked,
                    (unsigned long long)rep.stats.provenDisjoint,
                    (unsigned long long)rep.stats.unproved,
                    rep.independent() ? "independent"
                    : rep.complete    ? "NOT PROVEN"
                                      : "INCOMPLETE");
        for (const ConflictFinding &f : rep.findings)
            std::printf("  [%s] vault %d inst %d: %s\n",
                        conflictKindName(f.kind), f.vault, f.index,
                        f.message.c_str());
    };

    if (!o.asmFile.empty()) {
        std::ifstream in(o.asmFile);
        if (!in)
            fatal("cannot open ", o.asmFile);
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<Instruction> prog = assemble(text.str());
        ProgramAnalysis pa = analyzeProgram(cfg, prog);
        ConflictReport rep = checkProgramConflicts(pa);
        CostEstimate c = estimateProgramCost(cfg, pa);
        report(o.asmFile, prog.size(), 1, pa, rep, c);
        emitDot("program", *pa.cfg);
    } else {
        std::vector<std::string> benches;
        if (o.allBenches)
            benches = allBenchmarkNames();
        else
            benches.push_back(o.bench);

        CompilerOptions copts = parseOpts(o.opts);
        for (const std::string &name : benches) {
            BenchmarkApp app = makeBenchmark(name, o.width, o.height);
            CompiledPipeline cp = compilePipeline(app.def, cfg, copts);
            for (const CompiledKernel &k : cp.kernels) {
                std::vector<ProgramAnalysis> pas;
                pas.reserve(k.perVault.size());
                std::vector<const ProgramAnalysis *> ptrs;
                for (size_t v = 0; v < k.perVault.size(); ++v) {
                    pas.push_back(analyzeProgram(
                        cfg, k.perVault[v],
                        int(v / cfg.vaultsPerCube),
                        int(v % cfg.vaultsPerCube)));
                    ptrs.push_back(&pas.back());
                }
                ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
                CostEstimate worst;
                for (const ProgramAnalysis &pa : pas) {
                    CostEstimate c = estimateProgramCost(cfg, pa);
                    if (c.cycles > worst.cycles)
                        worst = c;
                }
                report(name + "/" + k.stage, k.backend.instructions,
                       k.perVault.size(), pas[0], rep, worst);
                emitDot(k.stage, *pas[0].cfg);
            }
        }
    }

    if (o.json) {
        j.endArray();
        j.field("pass", totalFindings == 0);
        std::printf("%s\n", j.finish().c_str());
    }
    return totalFindings == 0 ? 0 : 3;
}

/** Write @p tracer's Chrome trace_event JSON to @p path. */
void
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open trace output file ", path);
    tracer.exportChromeJson(out);
    if (!out)
        fatal("failed writing trace to ", path);
}

/**
 * The `ipim trace` subcommand: run one benchmark with tracing enabled,
 * write the Chrome trace (and optionally the counter CSV), and print
 * the windowed utilization report.
 */
int
runTraceCommand(const Options &o)
{
    HardwareConfig cfg = buildConfig(o);
    BenchmarkApp app = makeBenchmark(o.bench, o.width, o.height);
    CompilerOptions copts = parseOpts(o.opts);
    CompiledPipeline cp = compilePipeline(app.def, cfg, copts);

    Tracer tracer;
    tracer.setEnabled(true);
    Device dev(cfg, &tracer);
    dev.setFastForward(o.fastForward);
    dev.setThreads(o.threads);
    Runtime rt(dev, cp);
    for (const auto &[name, img] : app.inputs)
        rt.bindInput(name, img);
    LaunchResult res = rt.run();

    writeChromeTrace(tracer, o.traceOut);
    if (!o.traceCsv.empty()) {
        std::ofstream csv(o.traceCsv, std::ios::binary);
        if (!csv)
            fatal("cannot open ", o.traceCsv);
        tracer.exportCsv(csv);
    }

    std::printf("bench %s %dx%d | device %ux%ux%ux%u | %llu cycles\n",
                o.bench.c_str(), o.width, o.height, cfg.cubes,
                cfg.vaultsPerCube, cfg.pgsPerVault, cfg.pesPerPg,
                (unsigned long long)res.cycles);
    TraceReport trep = buildTraceReport(tracer, res.cycles,
                                        o.traceWindows);
    std::printf("%s", trep.toString().c_str());
    std::printf("%llu events (%llu dropped) -> %s\n",
                (unsigned long long)tracer.recorded(),
                (unsigned long long)tracer.dropped(),
                o.traceOut.c_str());
    if (!o.traceCsv.empty())
        std::printf("counter CSV -> %s\n", o.traceCsv.c_str());
    return 0;
}

/**
 * The `ipim profile` subcommand: run one benchmark with the metrics
 * sampler attached, then print the bottleneck profiler's report
 * (DESIGN.md Sec. 14).
 */
int
runProfileCommand(const Options &o)
{
    HardwareConfig cfg = buildConfig(o);
    BenchmarkApp app = makeBenchmark(o.bench, o.width, o.height);
    CompilerOptions copts = parseOpts(o.opts);
    CompiledPipeline cp = compilePipeline(app.def, cfg, copts);

    MetricsSampler::Config mcfg;
    mcfg.interval = o.metricsInterval;
    MetricsSampler sampler(mcfg);

    Device dev(cfg);
    dev.setFastForward(o.fastForward);
    dev.setThreads(o.threads);
    dev.setProbe(&sampler);
    Runtime rt(dev, cp);
    for (const auto &[name, img] : app.inputs)
        rt.bindInput(name, img);
    LaunchResult res = rt.run();

    ProfileReport prep = buildProfileReport(cfg, dev.stats(),
                                            res.vaultAccounting,
                                            res.cycles);

    if (o.json) {
        JsonWriter j;
        j.field("bench", o.bench)
            .field("width", o.width)
            .field("height", o.height);
        j.key("device").beginObject();
        j.field("cubes", cfg.cubes)
            .field("vaults", cfg.vaultsPerCube)
            .field("pgs", cfg.pgsPerVault)
            .field("pes", cfg.pesPerPg);
        j.endObject();
        j.field("opts", o.opts).field("cycles", u64(res.cycles));
        j.key("profile");
        prep.toJson(j);
        j.key("metrics");
        sampler.toJson(j);
        j.statsObject("stats", dev.stats());
        std::printf("%s\n", j.finish().c_str());
        return 0;
    }

    std::printf("profile %s %dx%d | device %ux%ux%ux%u | opts %s\n",
                o.bench.c_str(), o.width, o.height, cfg.cubes,
                cfg.vaultsPerCube, cfg.pgsPerVault, cfg.pesPerPg,
                o.opts.c_str());
    std::printf("%s", prep.toString().c_str());
    std::printf("\nsampler: %llu samples (%u retained) at interval %llu "
                "cycles\n",
                (unsigned long long)sampler.samplesTotal(),
                sampler.samplesRetained(),
                (unsigned long long)sampler.interval());
    return 0;
}

/** Split a comma-separated --bench list. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
        if (c == ',') {
            if (!cur.empty())
                parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

/** Parse --tenants NAME:WEIGHT:PRIO[:SHARE],... (empty input -> {}). */
std::vector<TenantSpec>
parseTenants(const std::string &arg)
{
    std::vector<TenantSpec> tenants;
    for (const std::string &tok : splitList(arg)) {
        std::vector<std::string> parts;
        size_t pos = 0;
        while (pos <= tok.size()) {
            size_t colon = tok.find(':', pos);
            if (colon == std::string::npos) {
                parts.push_back(tok.substr(pos));
                break;
            }
            parts.push_back(tok.substr(pos, colon - pos));
            pos = colon + 1;
        }
        if (parts.size() < 3 || parts.size() > 4 || parts[0].empty())
            fatal("--tenants entry '", tok,
                  "' wants NAME:WEIGHT:PRIO[:SHARE]");
        TenantSpec t;
        t.name = parts[0];
        t.weight = std::stod(parts[1]);
        t.priority = u32(std::stoul(parts[2]));
        t.rateShare = parts.size() == 4 ? std::stod(parts[3]) : 1.0;
        tenants.push_back(std::move(t));
    }
    return tenants;
}

/** Build the serve command's load-generator spec. */
WorkloadSpec
buildWorkload(const Options &o)
{
    WorkloadSpec spec;
    spec.pipelines = splitList(o.bench);
    if (spec.pipelines.empty())
        fatal("--bench needs at least one pipeline name");
    spec.ratePerSec = o.rate;
    spec.requests = o.requests;
    spec.seed = o.seed;
    spec.tenants = parseTenants(o.tenants);
    spec.shape = parseTraceShape(o.traceShape);
    spec.burstDuty = o.burstDuty;
    spec.burstOnSec = o.burstOnMs * 1e-3;
    spec.diurnalPeriodSec = o.diurnalPeriodMs * 1e-3;
    spec.diurnalAmplitude = o.diurnalAmplitude;
    return spec;
}

/** The `ipim serve` subcommand: the src/fleet event loop, on one
 *  device unless --devices says otherwise. */
int
runServeCommand(const Options &o)
{
    FleetConfig fc;
    fc.hw = buildConfig(o);
    fc.devices = o.fleetDevices;
    fc.width = o.width;
    fc.height = o.height;
    fc.copts = parseOpts(o.opts);
    fc.backend = o.backend;
    fc.policy = o.servePolicy;
    fc.router = o.routerPolicy;
    fc.cubesPerRequest = o.cubesPerReq;
    fc.batching = o.batch;
    fc.maxBatch = o.maxBatch;
    fc.batchWindowCycles = o.batchWindow;
    fc.preempt = o.preempt;
    // 1 cycle == 1 ns, so ms -> cycles is a factor of 1e6.
    fc.shedP99Cycles = Cycle(o.shedP99Ms * 1e6);
    fc.fastForward = o.fastForward;
    fc.threads = o.threads;
    fc.cacheCapacity = o.cacheCap;
    fc.launchOverheadCycles = o.launchOverhead;

    WorkloadSpec spec = buildWorkload(o);
    fc.tenants = spec.tenants;
    std::vector<ServeRequest> reqs = generateWorkload(spec);

    // Observability (DESIGN.md Sec. 19): each feed switches on only
    // when its output file is requested; the observer must outlive the
    // FleetServer it is attached to.
    FleetObserverConfig oc;
    oc.tracing = !o.traceFile.empty();
    oc.events = !o.eventsFile.empty();
    oc.sampling = !o.metricsFile.empty();
    oc.sampleInterval = o.metricsInterval;
    std::unique_ptr<FleetObserver> obs;
    if (oc.tracing || oc.events || oc.sampling) {
        if (oc.sampling && o.backend != "cycle")
            fatal("--metrics needs the cycle backend (the functional "
                  "backend has no device counters to sample)");
        obs = std::make_unique<FleetObserver>(oc);
        fc.observer = obs.get();
    }

    FleetServer fleet(fc);
    FleetReport rep = fleet.run(reqs);

    if (!o.traceFile.empty()) {
        std::ofstream out(o.traceFile, std::ios::binary);
        if (!out)
            fatal("cannot open trace output file ", o.traceFile);
        obs->exportChromeJson(out);
        if (!out)
            fatal("failed writing trace to ", o.traceFile);
    }
    if (!o.eventsFile.empty()) {
        std::ofstream out(o.eventsFile, std::ios::binary);
        if (!out)
            fatal("cannot open events output file ", o.eventsFile);
        obs->writeEvents(out);
        if (!out)
            fatal("failed writing events to ", o.eventsFile);
    }
    if (!o.metricsFile.empty()) {
        std::ofstream out(o.metricsFile, std::ios::binary);
        if (!out)
            fatal("cannot open metrics output file ", o.metricsFile);
        JsonWriter mj;
        mj.field("schema", "ipim-fleet-metrics-v1");
        mj.key("metrics");
        obs->metricsJson(mj);
        out << mj.finish() << '\n';
        if (!out)
            fatal("failed writing metrics to ", o.metricsFile);
    }

    if (!o.promFile.empty()) {
        std::ofstream prom(o.promFile, std::ios::binary);
        if (!prom)
            fatal("cannot open ", o.promFile);
        prom << rep.prometheusText();
        if (obs)
            prom << obs->prometheusText();
        if (!prom)
            fatal("failed writing Prometheus snapshot to ", o.promFile);
    }

    if (o.json) {
        JsonWriter j;
        j.key("config").beginObject();
        j.field("width", fc.width)
            .field("height", fc.height)
            .field("cubes", fc.hw.cubes)
            .field("vaults", fc.hw.vaultsPerCube)
            .field("pgs", fc.hw.pgsPerVault)
            .field("pes", fc.hw.pesPerPg)
            .field("cubes_per_request", fc.cubesPerRequest)
            .field("rate_rps", spec.ratePerSec)
            .field("requests", u64(spec.requests))
            .field("seed", spec.seed)
            .field("opts", o.opts)
            .field("trace_shape", o.traceShape)
            .field("tenants", o.tenants);
        j.endObject();
        rep.toJson(j, fleet.config());
        std::printf("%s\n", j.finish().c_str());
        return 0;
    }

    std::printf("serve %s | fleet %ux (%ux%ux%ux%u, %u slot%s each) | "
                "backend %s | router %s | policy %s | rate %.0f req/s | "
                "shape %s | seed %llu\n",
                o.bench.c_str(), fleet.devices(), fc.hw.cubes,
                fc.hw.vaultsPerCube, fc.hw.pgsPerVault, fc.hw.pesPerPg,
                fleet.slotsPerDevice(),
                fleet.slotsPerDevice() == 1 ? "" : "s",
                fc.backend.c_str(), fc.router.c_str(), fc.policy.c_str(),
                spec.ratePerSec, o.traceShape.c_str(),
                (unsigned long long)spec.seed);
    std::printf("%s", rep.summary().c_str());
    if (!o.traceFile.empty())
        std::printf("fleet trace -> %s\n", o.traceFile.c_str());
    if (!o.eventsFile.empty())
        std::printf("%llu decision events -> %s\n",
                    (unsigned long long)obs->eventCount(),
                    o.eventsFile.c_str());
    if (!o.metricsFile.empty())
        std::printf("sampled metrics -> %s\n", o.metricsFile.c_str());
    if (!o.promFile.empty())
        std::printf("Prometheus snapshot -> %s\n", o.promFile.c_str());
    return 0;
}

/** The `ipim explain` subcommand: replay one request's story from a
 *  fleet decision event log (src/fleet/events). */
int
runExplainCommand(const Options &o)
{
    if (o.explainReq == ~u64(0))
        fatal("explain needs --req ID");
    if (o.eventsFile.empty())
        fatal("explain needs --events FILE (written by "
              "`ipim serve --events FILE`)");
    std::ifstream in(o.eventsFile, std::ios::binary);
    if (!in)
        fatal("cannot open events file ", o.eventsFile);
    std::vector<FleetEvent> events = loadFleetEvents(in);
    std::printf("%s", explainRequest(events, o.explainReq).c_str());
    return 0;
}

/**
 * Parse argv into @p o.  Returns false when --help printed the usage
 * and there is nothing to run; a bad option or value throws, so main
 * reports it like any other error.
 */
bool
parseArgs(int argc, char **argv, Options &o)
{
    int first = 1;
    if (argc > 1 && std::strcmp(argv[1], "verify") == 0) {
        o.verifyCmd = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "analyze") == 0) {
        o.analyzeCmd = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
        o.traceCmd = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "explain") == 0) {
        o.explainCmd = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "profile") == 0) {
        o.profileCmd = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
        o.serveCmd = true;
        first = 2;
        // Serving default: a 2-cube scaled-down device at 128x64 keeps a
        // 200-request run fast while still exercising space sharing.
        // Explicit flags below override.
        o.bench = "Blur,Brighten";
        o.cubes = 2;
        o.vaults = 4;
        o.pgs = 2;
        o.pes = 2;
        o.width = 128;
        o.height = 64;
    }
    // std::stoi and friends throw std::invalid_argument/out_of_range
    // (logic errors) on a malformed number; argv[i] is then its text.
    int i = first;
    try {
        for (; i < argc; ++i) {
            std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value after ", a);
                return argv[++i];
            };
            if (a == "--list")
                o.list = true;
            else if (a == "--bench")
                o.bench = next();
            else if (a == "--width")
                o.width = std::stoi(next());
            else if (a == "--height")
                o.height = std::stoi(next());
            else if (a == "--cubes")
                o.cubes = u32(std::stoul(next()));
            else if (a == "--vaults")
                o.vaults = u32(std::stoul(next()));
            else if (a == "--pgs")
                o.pgs = u32(std::stoul(next()));
            else if (a == "--pes")
                o.pes = u32(std::stoul(next()));
            else if (a == "--ponb")
                o.ponb = true;
            else if (a == "--sched") {
                // In serve mode --sched selects the request scheduler; for
                // run/verify it selects the DRAM scheduling policy.
                if (o.serveCmd)
                    o.servePolicy = next();
                else
                    o.sched = next();
            } else if (a == "--page")
                o.page = next();
            else if (a == "--opts")
                o.opts = next();
            else if (a == "--verify")
                o.verify = true;
            else if (a == "--all")
                o.allBenches = true;
            else if (a == "--werror")
                o.werror = true;
            else if (a == "--asm")
                o.asmFile = next();
            else if (a == "--dot")
                o.dotPrefix = next();
            else if (a == "--gpu")
                o.gpu = true;
            else if (a == "--dump-asm")
                o.dumpAsm = true;
            else if (a == "--json")
                o.json = true;
            else if (a == "--rate")
                o.rate = std::stod(next());
            else if (a == "--requests")
                o.requests = u32(std::stoul(next()));
            else if (a == "--seed")
                o.seed = std::stoull(next());
            else if (a == "--cubes-per-req")
                o.cubesPerReq = u32(std::stoul(next()));
            else if (a == "--devices")
                o.fleetDevices = u32(std::stoul(next()));
            else if (a == "--router")
                o.routerPolicy = next();
            else if (a == "--batch")
                o.batch = true;
            else if (a == "--max-batch")
                o.maxBatch = u32(std::stoul(next()));
            else if (a == "--batch-window")
                o.batchWindow = std::stoull(next());
            else if (a == "--no-preempt")
                o.preempt = false;
            else if (a == "--shed-p99-ms")
                o.shedP99Ms = std::stod(next());
            else if (a == "--tenants")
                o.tenants = next();
            else if (a == "--trace-shape")
                o.traceShape = next();
            else if (a == "--burst-duty")
                o.burstDuty = std::stod(next());
            else if (a == "--burst-on-ms")
                o.burstOnMs = std::stod(next());
            else if (a == "--diurnal-period-ms")
                o.diurnalPeriodMs = std::stod(next());
            else if (a == "--diurnal-amplitude")
                o.diurnalAmplitude = std::stod(next());
            else if (a == "--cache-cap")
                o.cacheCap = u32(std::stoul(next()));
            else if (a == "--launch-overhead")
                o.launchOverhead = std::stoull(next());
            else if (a == "--no-fast-forward")
                o.fastForward = false;
            else if (a == "--threads")
                o.threads = u32(std::stoul(next()));
            else if (a == "--backend")
                o.backend = next();
            else if (a == "--interval")
                o.metricsInterval = std::stoull(next());
            else if (a == "--prom")
                o.promFile = next();
            else if (a == "--trace")
                o.traceFile = next();
            else if (a == "--events")
                o.eventsFile = next();
            else if (a == "--metrics")
                o.metricsFile = next();
            else if (a == "--req")
                o.explainReq = std::stoull(next());
            else if (a == "--out")
                o.traceOut = next();
            else if (a == "--csv")
                o.traceCsv = next();
            else if (a == "--windows")
                o.traceWindows = u32(std::stoul(next()));
            else if (a == "--help" || a == "-h") {
                usage();
                return false;
            } else {
                usage();
                fatal("unknown option ", a);
            }
        }
    } catch (const std::logic_error &) {
        fatal("bad value '", argv[i], "' for ", argv[i - 1]);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        if (!parseArgs(argc, argv, o))
            return 0;
        if (o.list) {
            for (const std::string &n : allBenchmarkNames())
                std::printf("%s\n", n.c_str());
            return 0;
        }
        if (o.verifyCmd)
            return runVerifyCommand(o);
        if (o.analyzeCmd)
            return runAnalyzeCommand(o);
        if (o.serveCmd)
            return runServeCommand(o);
        if (o.explainCmd)
            return runExplainCommand(o);
        if (o.traceCmd)
            return runTraceCommand(o);
        if (o.profileCmd)
            return runProfileCommand(o);

        HardwareConfig cfg = buildConfig(o);

        BenchmarkApp app = makeBenchmark(o.bench, o.width, o.height);
        CompilerOptions copts = parseOpts(o.opts);
        CompiledPipeline cp = compilePipeline(app.def, cfg, copts);

        if (!o.json) {
            std::printf(
                "bench %s %dx%d | device %ux%ux%ux%u%s | opts %s\n",
                o.bench.c_str(), o.width, o.height, cfg.cubes,
                cfg.vaultsPerCube, cfg.pgsPerVault, cfg.pesPerPg,
                o.ponb ? " (PonB)" : "", o.opts.c_str());
            std::printf("compiled %zu kernels, %llu static instructions\n",
                        cp.kernels.size(),
                        (unsigned long long)cp.totalInstructions());
        }

        if (o.dumpAsm) {
            for (const CompiledKernel &k : cp.kernels) {
                std::printf("; ================ kernel %s (vault 0) "
                            "================\n",
                            k.stage.c_str());
                std::printf("%s", disassemble(k.perVault[0]).c_str());
            }
            return 0;
        }

        if (o.backend != "cycle" && o.backend != "func")
            fatal("unknown backend '", o.backend, "' (cycle | func)");

        if (o.backend == "func") {
            FuncDevice fdev(cfg);
            FuncLaunchResult fres =
                funcLaunchOnDevice(fdev, cp, app.inputs);
            f64 px = f64(o.width) * o.height;
            if (o.json) {
                JsonWriter j;
                j.field("bench", o.bench)
                    .field("width", o.width)
                    .field("height", o.height)
                    .field("backend", "func");
                j.key("device").beginObject();
                j.field("cubes", cfg.cubes)
                    .field("vaults", cfg.vaultsPerCube)
                    .field("pgs", cfg.pgsPerVault)
                    .field("pes", cfg.pesPerPg)
                    .field("ponb", cfg.processOnBaseDie);
                j.endObject();
                j.field("opts", o.opts)
                    .field("static_instructions", cp.totalInstructions())
                    .field("estimated_cycles", fres.estimatedCycles)
                    .field("estimate_calibrated", fres.calibrated)
                    .field("executed_instructions", fres.executedInsts)
                    .field("mpix_per_s",
                           px / (fres.estimatedCycles * 1e-9) / 1e6);
                j.key("kernels").beginArray();
                for (size_t k = 0; k < fres.kernelEstimates.size(); ++k) {
                    j.beginObject();
                    j.field("stage", cp.kernels[k].stage)
                        .field("estimated_cycles",
                               fres.kernelEstimates[k]);
                    j.endObject();
                }
                j.endArray();
                if (o.verify) {
                    Image ref = referenceRun(app.def, app.inputs);
                    f32 diff = ref.maxAbsDiff(fres.output);
                    j.field("verify_max_abs_diff", f64(diff));
                    j.field("verify_pass", diff == 0.0f);
                    std::printf("%s\n", j.finish().c_str());
                    return diff == 0.0f ? 0 : 2;
                }
                std::printf("%s\n", j.finish().c_str());
                return 0;
            }
            std::printf("backend: functional (estimated cycles from the "
                        "static cost model)\n");
            std::printf("estimated cycles: %.0f (%.3f ms) | %.1f Mpx/s | "
                        "%llu instructions interpreted\n",
                        fres.estimatedCycles,
                        fres.estimatedCycles * 1e-6,
                        px / (fres.estimatedCycles * 1e-9) / 1e6,
                        (unsigned long long)fres.executedInsts);
            for (size_t k = 0; k < fres.kernelEstimates.size(); ++k)
                std::printf("  kernel %-18s %10.0f cycles (est)\n",
                            cp.kernels[k].stage.c_str(),
                            fres.kernelEstimates[k]);
            if (o.verify) {
                Image ref = referenceRun(app.def, app.inputs);
                f32 diff = ref.maxAbsDiff(fres.output);
                std::printf("verify: max|diff| = %g -> %s\n", diff,
                            diff == 0.0f ? "BIT-EXACT" : "MISMATCH");
                return diff == 0.0f ? 0 : 2;
            }
            return 0;
        }

        std::unique_ptr<Tracer> tracer;
        if (!o.traceFile.empty()) {
            tracer = std::make_unique<Tracer>();
            tracer->setEnabled(true);
        }
        Device dev(cfg, tracer.get());
        dev.setFastForward(o.fastForward);
        dev.setThreads(o.threads);
        Runtime rt(dev, cp);
        for (const auto &[name, img] : app.inputs)
            rt.bindInput(name, img);
        LaunchResult res = rt.run();
        if (tracer)
            writeChromeTrace(*tracer, o.traceFile);

        if (o.json) {
            EnergyBreakdown e =
                computeEnergy(cfg, dev.stats(), res.cycles);
            f64 px = f64(o.width) * o.height;
            JsonWriter j;
            j.field("bench", o.bench)
                .field("width", o.width)
                .field("height", o.height)
                .field("backend", "cycle");
            j.key("device").beginObject();
            j.field("cubes", cfg.cubes)
                .field("vaults", cfg.vaultsPerCube)
                .field("pgs", cfg.pgsPerVault)
                .field("pes", cfg.pesPerPg)
                .field("ponb", cfg.processOnBaseDie);
            j.endObject();
            j.field("opts", o.opts)
                .field("static_instructions", cp.totalInstructions())
                .field("cycles", u64(res.cycles))
                .field("mpix_per_s",
                       px / (f64(res.cycles) * 1e-9) / 1e6);
            j.key("kernels").beginArray();
            for (size_t k = 0; k < res.kernelCycles.size(); ++k) {
                j.beginObject();
                j.field("stage", cp.kernels[k].stage)
                    .field("cycles", u64(res.kernelCycles[k]));
                j.endObject();
            }
            j.endArray();
            j.key("energy_mj").beginObject();
            j.field("total", e.total() * 1e3)
                .field("dram", e.dram * 1e3)
                .field("simd_unit", e.simdUnit * 1e3)
                .field("addr_rf", e.addrRf * 1e3)
                .field("data_rf", e.dataRf * 1e3)
                .field("pgsm", e.pgsm * 1e3)
                .field("others", e.others * 1e3);
            j.endObject();
            // Derived telemetry (no trace parsing; see `ipim trace`).
            {
                const StatsRegistry &st = dev.stats();
                f64 rowHit = st.get("dram.rowHit");
                f64 rowMiss = st.get("dram.rowMiss");
                j.key("telemetry").beginObject();
                j.field("row_hit_rate",
                        rowHit / std::max(1.0, rowHit + rowMiss));
                j.field("noc_moves_per_cycle",
                        (st.get("noc.hops") + st.get("noc.delivered")) /
                            std::max(1.0, f64(res.cycles)));
                // Issue counts come from the LaunchResult: per-vault
                // counters restart at each program load, and the
                // runtime accumulates them across the kernels.
                j.field("total_issued", res.totalIssued);
                j.field("avg_vault_ipc",
                        f64(res.totalIssued) /
                            std::max(1.0, f64(res.cycles) *
                                              dev.totalVaults()));
                j.key("vault_ipc").beginArray();
                for (u64 n : res.vaultIssued)
                    j.value(f64(n) / std::max(1.0, f64(res.cycles)));
                j.endArray();
                j.endObject();
                j.key("fast_forward").beginObject();
                j.field("enabled", dev.fastForward())
                    .field("skipped_cycles", dev.ffwdSkippedCycles())
                    .field("jumps", dev.ffwdJumps());
                j.endObject();
                j.field("threads", dev.threads());
            }
            if (o.verify) {
                Image ref = referenceRun(app.def, app.inputs);
                f32 diff = ref.maxAbsDiff(res.output);
                j.field("verify_max_abs_diff", f64(diff));
                j.field("verify_pass", diff == 0.0f);
                j.statsObject("stats", dev.stats());
                std::printf("%s\n", j.finish().c_str());
                return diff == 0.0f ? 0 : 2;
            }
            j.statsObject("stats", dev.stats());
            std::printf("%s\n", j.finish().c_str());
            return 0;
        }

        f64 px = f64(o.width) * o.height;
        std::printf("cycles: %llu (%.3f ms) | %.1f Mpx/s\n",
                    (unsigned long long)res.cycles,
                    f64(res.cycles) * 1e-6,
                    px / (f64(res.cycles) * 1e-9) / 1e6);
        for (size_t k = 0; k < res.kernelCycles.size(); ++k)
            std::printf("  kernel %-18s %10llu cycles\n",
                        cp.kernels[k].stage.c_str(),
                        (unsigned long long)res.kernelCycles[k]);

        const StatsRegistry &s = dev.stats();
        f64 issued = s.get("core.issued");
        std::printf("issued %.0f | IPC/vault %.3f | mix: comp %.1f%% "
                    "idx %.1f%% intra %.1f%% inter %.2f%% ctrl %.1f%%\n",
                    issued, issued / s.get("core.cycles"),
                    100 * s.get("inst.computation") / issued,
                    100 * s.get("inst.index_calc") / issued,
                    100 * s.get("inst.intra_vault") / issued,
                    100 * s.get("inst.inter_vault") / issued,
                    100 * s.get("inst.control_flow") / issued);
        std::printf("DRAM: rd %.0f wr %.0f act %.0f ref %.0f | row hits "
                    "%.1f%%\n",
                    s.get("dram.rd"), s.get("dram.wr"), s.get("dram.act"),
                    s.get("dram.ref"),
                    100 * s.get("dram.rowHit") /
                        std::max(1.0, s.get("dram.rowHit") +
                                          s.get("dram.rowMiss")));
        EnergyBreakdown e = computeEnergy(cfg, s, res.cycles);
        std::printf("energy: %.4f mJ (%s)\n", e.total() * 1e3,
                    e.toString().c_str());

        if (o.gpu) {
            GpuRunEstimate gpu = estimateGpu(analyzePipeline(app.def));
            std::printf("GPU model: %.3f ms, %.3f mJ -> speedup %.2fx "
                        "(this device, unscaled)\n",
                        gpu.seconds * 1e3, gpu.joules * 1e3,
                        gpu.seconds / (f64(res.cycles) * 1e-9));
        }

        if (o.verify) {
            Image ref = referenceRun(app.def, app.inputs);
            f32 diff = ref.maxAbsDiff(res.output);
            std::printf("verify: max|diff| = %g -> %s\n", diff,
                        diff == 0.0f ? "BIT-EXACT" : "MISMATCH");
            return diff == 0.0f ? 0 : 2;
        }
        return 0;
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        return 1;
    }
}
