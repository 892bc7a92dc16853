/**
 * Functional-backend regressions (DESIGN.md Sec. 16).
 *
 * The functional interpreter must be pixel-exact with the cycle
 * simulator — bit-identical outputs on every benchmark and every
 * examples pipeline — and the latency estimator must reproduce the
 * static cost model uncalibrated and the measured cycle count once
 * calibrated.  Also home to the compile-determinism regression
 * (DESIGN.md Sec. 13): compile() twice must emit byte-identical
 * programs.
 */
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "func/func_runtime.h"
#include "isa/encoding.h"
#include "runtime/runtime.h"

namespace ipim {
namespace {

void
expectBitExact(const Image &cycle, const Image &func)
{
    ASSERT_EQ(cycle.width(), func.width());
    ASSERT_EQ(cycle.height(), func.height());
    for (int y = 0; y < cycle.height(); ++y)
        for (int x = 0; x < cycle.width(); ++x)
            ASSERT_EQ(f32AsLane(cycle.at(x, y)), f32AsLane(func.at(x, y)))
                << "pixel (" << x << "," << y << ")";
}

/** Permanent pixel-exactness gate: functional vs cycle on all ten
 *  paper benchmarks. */
TEST(FuncBackend, AllBenchmarksPixelExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg);

        Device dev(cfg);
        LaunchResult cyc = launchOnDevice(dev, cp, app.inputs);

        FuncDevice fdev(cfg);
        FuncLaunchResult fun = funcLaunchOnDevice(fdev, cp, app.inputs);

        expectBitExact(cyc.output, fun.output);
        EXPECT_GT(fun.executedInsts, 0u);
        EXPECT_GT(fun.estimatedCycles, 0.0);
        EXPECT_FALSE(fun.calibrated);
        EXPECT_EQ(fun.scale, 1.0);
        EXPECT_EQ(fun.kernelEstimates.size(), cp.kernels.size());
    }
}

/** The functional path must re-run cleanly on a reused device (the
 *  serving layer keeps one FuncDevice per slot). */
TEST(FuncBackend, ReusedDeviceBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp blur = makeBenchmark("Blur", 64, 32);
    BenchmarkApp hist = makeBenchmark("Histogram", 64, 32);
    CompiledPipeline cpBlur = compilePipeline(blur.def, cfg);
    CompiledPipeline cpHist = compilePipeline(hist.def, cfg);

    FuncDevice dev(cfg);
    Image first = funcLaunchOnDevice(dev, cpBlur, blur.inputs).output;
    funcLaunchOnDevice(dev, cpHist, hist.inputs);
    Image again = funcLaunchOnDevice(dev, cpBlur, blur.inputs).output;
    expectBitExact(first, again);
}

// --- Examples pipelines (mirrors examples/*.cpp at test sizes) ---

FuncPtr
quickstartOut()
{
    Var x("x"), y("y");
    FuncPtr in = Func::input("in");
    FuncPtr blurx = Func::make("blurx");
    blurx->define(x, y,
                  ((*in)(x - 1, y) + (*in)(x, y) + (*in)(x + 1, y)) /
                      3.0f);
    FuncPtr out = Func::make("out");
    out->define(x, y,
                ((*blurx)(x, y - 1) + (*blurx)(x, y) +
                 (*blurx)(x, y + 1)) /
                    3.0f);
    out->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    return out;
}

FuncPtr
denoiseOut()
{
    Var x("x"), y("y");
    FuncPtr in = Func::input("in");
    FuncPtr sx = Func::make("smooth_x");
    sx->define(x, y,
               ((*in)(x - 1, y) + (*in)(x, y) * 2.0f + (*in)(x + 1, y)) /
                   4.0f);
    FuncPtr smooth = Func::make("smooth");
    smooth->define(x, y,
                   ((*sx)(x, y - 1) + (*sx)(x, y) * 2.0f +
                    (*sx)(x, y + 1)) /
                       4.0f);
    smooth->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    FuncPtr edge = Func::make("edge");
    Expr dx = (*smooth)(x + 1, y) - (*smooth)(x - 1, y);
    Expr dy = (*smooth)(x, y + 1) - (*smooth)(x, y - 1);
    Expr adx = max(dx, Expr(0.0f) - dx);
    Expr ady = max(dy, Expr(0.0f) - dy);
    edge->define(x, y, min(Expr(1.0f), (adx + ady) * 4.0f));
    edge->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    FuncPtr blend = Func::make("blend");
    blend->define(x, y,
                  (*edge)(x, y) * (*in)(x, y) +
                      (Expr(1.0f) - (*edge)(x, y)) * (*smooth)(x, y));
    blend->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    FuncPtr wide = Func::make("wide");
    Expr s = Expr(0.0f);
    for (int d = -2; d <= 2; ++d)
        s = s + (*blend)(x + d, y);
    wide->define(x, y, s / 5.0f);
    wide->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    FuncPtr out = Func::make("denoise_out");
    out->define(x, y,
                (*blend)(x, y) +
                    ((*blend)(x, y) - (*wide)(x, y)) * 0.7f);
    out->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    return out;
}

FuncPtr
resample(FuncPtr src, const char *name, bool down, bool alongX)
{
    Var x("x"), y("y");
    FuncPtr f = Func::make(name);
    if (down && alongX)
        f->define(x, y,
                  ((*src)(x * 2 - 1, y) + (*src)(x * 2, y) * 2.0f +
                   (*src)(x * 2 + 1, y)) /
                      4.0f);
    else if (down)
        f->define(x, y,
                  ((*src)(x, y * 2 - 1) + (*src)(x, y * 2) * 2.0f +
                   (*src)(x, y * 2 + 1)) /
                      4.0f);
    else if (alongX)
        f->define(x, y,
                  ((*src)(x / 2, y) + (*src)((x + 1) / 2, y)) / 2.0f);
    else
        f->define(x, y,
                  ((*src)(x, y / 2) + (*src)(x, (y + 1) / 2)) / 2.0f);
    f->computeRoot()
        .ipimTile(down ? 8 : 16, 8)
        .loadPgsm()
        .vectorize(4);
    return f;
}

FuncPtr
tonemapOut()
{
    Var x("x"), y("y");
    FuncPtr in = Func::input("in");
    FuncPtr g1x = resample(in, "g1x", true, true);
    FuncPtr g1 = resample(g1x, "g1", true, false);
    FuncPtr toned = Func::make("toned");
    toned->define(x, y,
                  (*g1)(x, y) / ((*g1)(x, y) + Expr(0.6f)) * 1.4f);
    toned->computeRoot().ipimTile(8, 8).loadPgsm().vectorize(4);
    FuncPtr upx = resample(toned, "upx", false, true);
    FuncPtr base = resample(upx, "base", false, false);
    FuncPtr out = Func::make("tonemap_out");
    Expr up =
        ((*g1)(x / 2, y / 2) + (*g1)((x + 1) / 2, (y + 1) / 2)) / 2.0f;
    out->define(x, y, (*base)(x, y) + ((*in)(x, y) - up) * 0.8f);
    out->computeRoot().ipimTile(16, 8).loadPgsm().vectorize(4);
    return out;
}

TEST(FuncBackend, ExamplesPipelinesPixelExact)
{
    struct Example
    {
        const char *name;
        FuncPtr out;
        u64 seed;
    };
    const Example examples[] = {
        {"quickstart_blur", quickstartOut(), 1},
        {"denoise", denoiseOut(), 11},
        {"tonemap", tonemapOut(), 21},
    };
    HardwareConfig cfg = HardwareConfig::benchCube();
    for (const Example &ex : examples) {
        SCOPED_TRACE(ex.name);
        int w = 64, h = 32;
        PipelineDef def{ex.name, ex.out, w, h, {}};
        Image input = Image::synthetic(w, h, ex.seed);
        CompiledPipeline cp = compilePipeline(def, cfg);

        Device dev(cfg);
        LaunchResult cyc = launchOnDevice(dev, cp, {{"in", input}});
        FuncDevice fdev(cfg);
        FuncLaunchResult fun =
            funcLaunchOnDevice(fdev, cp, {{"in", input}});
        expectBitExact(cyc.output, fun.output);
    }
}

// --- Latency estimator ---

TEST(FuncBackend, EstimatorCalibration)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);

    LatencyEstimator est;
    EXPECT_FALSE(est.calibrated(cp));
    EXPECT_EQ(est.scaleFor(cp), 1.0);

    f64 stat = 0;
    for (f64 c : staticKernelEstimates(cp))
        stat += c;
    ASSERT_GT(stat, 0.0);

    Device dev(cfg);
    LaunchResult cyc = launchOnDevice(dev, cp, app.inputs);
    est.recordMeasurement(cp, f64(cyc.cycles));
    EXPECT_TRUE(est.calibrated(cp));
    EXPECT_DOUBLE_EQ(est.scaleFor(cp), f64(cyc.cycles) / stat);

    // First measurement wins, like CachedProgram.
    est.recordMeasurement(cp, 1.0);
    EXPECT_DOUBLE_EQ(est.scaleFor(cp), f64(cyc.cycles) / stat);

    // A calibrated functional launch reproduces the measured cycles.
    FuncDevice fdev(cfg);
    FuncLaunchResult fun =
        funcLaunchOnDevice(fdev, cp, app.inputs, &est);
    EXPECT_TRUE(fun.calibrated);
    EXPECT_NEAR(fun.estimatedCycles, f64(cyc.cycles),
                1e-6 * f64(cyc.cycles));
}

TEST(FuncBackend, EstimatorKeySeparatesGeometryAndSize)
{
    HardwareConfig tiny = HardwareConfig::tiny();
    BenchmarkApp a = makeBenchmark("Blur", 64, 32);
    BenchmarkApp b = makeBenchmark("Blur", 32, 32);
    CompiledPipeline cpA = compilePipeline(a.def, tiny);
    CompiledPipeline cpB = compilePipeline(b.def, tiny);
    EXPECT_NE(estimatorKey(cpA), estimatorKey(cpB));

    LatencyEstimator est;
    est.recordMeasurement(cpA, 1000.0);
    EXPECT_TRUE(est.calibrated(cpA));
    EXPECT_FALSE(est.calibrated(cpB));
}

// --- FuncDevice failure modes ---

TEST(FuncDevice, WatchdogTripsOnRunawayLoop)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    std::vector<Instruction> prog;
    prog.push_back(Instruction::setiCrf(0, 1)); // condition: always
    prog.push_back(Instruction::setiCrf(1, 1)); // target: pc 1
    prog.push_back(Instruction::cjump(0, 1));
    prog.push_back(Instruction::halt());

    FuncDevice dev(cfg);
    dev.loadProgramAll(prog);
    EXPECT_THROW(dev.run(10'000), FatalError);
}

TEST(FuncDevice, BarrierDeadlockOnHaltedPeer)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    std::vector<std::vector<Instruction>> progs(cfg.cubes *
                                                cfg.vaultsPerCube);
    progs[0] = {Instruction::sync(1), Instruction::halt()};
    for (size_t v = 1; v < progs.size(); ++v)
        progs[v] = {Instruction::halt()};

    FuncDevice dev(cfg);
    dev.loadPrograms(progs);
    EXPECT_THROW(dev.run(), FatalError);
}

TEST(FuncDevice, ScratchpadsSurviveSoftResetAcrossKernels)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    FuncDevice dev(cfg);
    dev.loadProgramAll({Instruction::setiVsm(0, 0x1234), //
                        Instruction::halt()});
    dev.run();
    // Loading the next kernel must preserve VSM (pipelines hand data
    // between stages through scratchpads and banks).
    dev.loadProgramAll({Instruction::halt()});
    dev.run();
    EXPECT_EQ(dev.vsm(0, 0).read32(0), 0x1234u);
    // A power-cycle clears it.
    dev.reset();
    EXPECT_EQ(dev.vsm(0, 0).read32(0), 0u);
}

// --- Compile determinism (DESIGN.md Sec. 13) ---

/** compile() must be a pure function of (def, cfg, options): two
 *  compiles of the same pipeline emit byte-identical programs.  Guards
 *  the pointer-ordering fix in StageEmitter::buildPlans. */
TEST(CompileDeterminism, CompileTwiceByteEqual)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app1 = makeBenchmark(name, 64, 32);
        BenchmarkApp app2 = makeBenchmark(name, 64, 32);
        CompiledPipeline a = compilePipeline(app1.def, cfg);
        CompiledPipeline b = compilePipeline(app2.def, cfg);
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (size_t k = 0; k < a.kernels.size(); ++k) {
            ASSERT_EQ(a.kernels[k].perVault.size(),
                      b.kernels[k].perVault.size());
            for (size_t v = 0; v < a.kernels[k].perVault.size(); ++v)
                EXPECT_EQ(encodeProgram(a.kernels[k].perVault[v]),
                          encodeProgram(b.kernels[k].perVault[v]))
                    << "kernel " << k << " vault " << v;
        }
    }
}

/** 64-bit FNV-1a over every kernel's per-vault encodeProgram bytes. */
u64
programDigest(const CompiledPipeline &cp)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const CompiledKernel &k : cp.kernels)
        for (const auto &prog : k.perVault)
            for (u8 byte : encodeProgram(prog)) {
                h ^= byte;
                h *= 0x100000001b3ull;
            }
    return h;
}

/**
 * Golden program digests: the backend (register allocation, spilling,
 * memory-order edges, reordering) must emit exactly these bytes for the
 * ten benchmarks at 64x32 on the tiny configuration.  Any change here
 * moves simulated cycles, so an intended one must re-pin the table and
 * explain the drift.  @p golden is in allBenchmarkNames() order.
 * Returns the number of benchmarks whose compile spilled registers.
 */
int
expectGoldenDigests(const HardwareConfig &cfg, const CompilerOptions &opts,
                    const std::vector<u64> &golden)
{
    std::vector<std::string> names = allBenchmarkNames();
    EXPECT_EQ(names.size(), golden.size());
    int spilled = 0;
    for (size_t i = 0; i < names.size() && i < golden.size(); ++i) {
        BenchmarkApp app = makeBenchmark(names[i], 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg, opts);
        u64 d = programDigest(cp);
        EXPECT_EQ(d, golden[i]) << names[i] << ": 0x" << std::hex << d;
        u32 regs = 0;
        for (const CompiledKernel &k : cp.kernels)
            regs += k.backend.spilledRegs;
        spilled += regs > 0;
    }
    return spilled;
}

TEST(CompileDeterminism, GoldenDigestsOpt)
{
    expectGoldenDigests(HardwareConfig::tiny(), CompilerOptions::opt(),
                        {0x4960b7dc86631f85ull, 0x51f1b920f4841db2ull,
                         0xd3c3b7a0cb779c9bull, 0x52f2920d3e8e10bbull,
                         0xf8885bfcb7332f25ull, 0x2551315e3764f91bull,
                         0x13490a3f48285decull, 0x85d0a620a771b58aull,
                         0x956e9472ea68298full, 0xf3ac4ebb1394190bull});
}

TEST(CompileDeterminism, GoldenDigestsBaseline1)
{
    expectGoldenDigests(HardwareConfig::tiny(),
                        CompilerOptions::baseline1(),
                        {0x53197132e9e9fd05ull, 0xf4cd56be3ff8637eull,
                         0x34594daee4e69c31ull, 0xdbaee4937b2095ebull,
                         0x09cd30ea4da2e035ull, 0x56a2a061def547b1ull,
                         0x49d540ce95e5fc88ull, 0x138f7fe66fbfffabull,
                         0x6758b18041057297ull, 0x3f99a2428b7159d0ull});
}

TEST(CompileDeterminism, GoldenDigestsBaseline2)
{
    expectGoldenDigests(HardwareConfig::tiny(),
                        CompilerOptions::baseline2(),
                        {0x428172139659cc95ull, 0x7c63afd018d5a622ull,
                         0x4b623e034b0fdaf9ull, 0xf3db85dd28d7c4b7ull,
                         0xc1ce7838e11184e5ull, 0xe1ac5c1207ea8631ull,
                         0xe5bc9c4e12646654ull, 0xa372fa6745e373ebull,
                         0xdde0b651926ee3abull, 0xfe680a46e7a828ecull});
}

TEST(CompileDeterminism, GoldenDigestsBaseline3)
{
    expectGoldenDigests(HardwareConfig::tiny(),
                        CompilerOptions::baseline3(),
                        {0xbd636867e9b8f095ull, 0x29e1db9fb5b6a2baull,
                         0xdb0408825c1c5ba7ull, 0x1cc767f59e0517c3ull,
                         0x5eb1dd4a2d18a4d5ull, 0x6b7aac8244bea4afull,
                         0x996aa03ef3b2567cull, 0xdb40d3efff255662ull,
                         0x83d2d0c0fa9a9ab3ull, 0x313fb3008ed401f7ull});
}

TEST(CompileDeterminism, GoldenDigestsBaseline4)
{
    expectGoldenDigests(HardwareConfig::tiny(),
                        CompilerOptions::baseline4(),
                        {0x4960b7dc86631f85ull, 0x8fe17926a93435a2ull,
                         0xd19752caa5a72573ull, 0x52f2920d3e8e10bbull,
                         0xf8885bfcb7332f25ull, 0x2551315e3764f91bull,
                         0x45e10a13194006fcull, 0x6eb615f7b001fcbaull,
                         0xf50e0eadb30dcc67ull, 0x5a1d9daca1b2089bull});
}

/** An 8-register DataRF makes seven of the ten benchmarks spill. */
TEST(CompileDeterminism, GoldenDigestsSpilling)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.dataRfBytes = 8 * kVectorBytes;
    int spilled = expectGoldenDigests(
        cfg, CompilerOptions::opt(),
        {0x606c52d1b99c3c15ull, 0x78ac26f2a18c55eeull, 0x7879ccdd6f449329ull,
         0x5469e43ad93654efull, 0x738e28628897c285ull, 0xcd41d7204e6dbb1bull,
         0xaf2c1c856466f83cull, 0xef7edb4b2219b870ull, 0x3605ecda1af7cfe7ull,
         0x78cf4959b75282d7ull});
    EXPECT_GT(spilled, 0);
}

} // namespace
} // namespace ipim
