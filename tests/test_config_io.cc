/**
 * @file
 * Tests for config/profile text serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "core/config_io.hh"
#include "core/sweep_request.hh"
#include "stats_hash.hh"

#ifndef STOREMLP_CONFIG_DIR
#define STOREMLP_CONFIG_DIR "configs"
#endif

namespace storemlp
{
namespace
{

TEST(ConfigIo, SimConfigRoundTrip)
{
    SimConfig c = SimConfig::wc3();
    c.storePrefetch = StorePrefetch::AtExecute;
    c.storeQueueSize = 64;
    c.scout = ScoutMode::Hws2;
    c.tm.enabled = false;
    c.missLatency = 750;

    std::stringstream ss;
    saveSimConfig(ss, c);
    SimConfig r = loadSimConfig(ss);

    EXPECT_EQ(r.name, c.name);
    EXPECT_EQ(r.storePrefetch, c.storePrefetch);
    EXPECT_EQ(r.storeQueueSize, c.storeQueueSize);
    EXPECT_EQ(r.memoryModel, c.memoryModel);
    EXPECT_EQ(r.sle, c.sle);
    EXPECT_EQ(r.prefetchPastSerializing, c.prefetchPastSerializing);
    EXPECT_EQ(r.scout, c.scout);
    EXPECT_EQ(r.missLatency, c.missLatency);
}

TEST(ConfigIo, ParsesMinimalConfig)
{
    std::stringstream ss(
        "# a comment\n"
        "\n"
        "storePrefetch = sp2\n"
        "memoryModel = wc\n"
        "sle = true\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_EQ(c.storePrefetch, StorePrefetch::AtExecute);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::wc());
    EXPECT_TRUE(c.sle);
    // Untouched knobs keep their defaults.
    EXPECT_EQ(c.storeQueueSize, 32u);
}

TEST(ConfigIo, RejectsUnknownKey)
{
    std::stringstream ss("storeQueue = 64\n"); // typo
    EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
}

TEST(ConfigIo, RejectsBadValues)
{
    {
        std::stringstream ss("storeQueueSize = many\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    {
        std::stringstream ss("sle = maybe\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    {
        std::stringstream ss("storePrefetch = sp9\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    {
        std::stringstream ss("just a line without equals\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    // u32 keys are range-checked, not truncated (2^32 used to load
    // as 0, 2^32 + 1 as 1).
    for (const char *text : {"robSize = 4294967296\n",
                             "missLatency = 4294967297\n"}) {
        std::stringstream ss(text);
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError) << text;
    }
    // Doubles are decimal, finite and representable only.
    for (const char *v : {"nan", "inf", "-inf", "0x1p-2", "1e400",
                          "1e-400"}) {
        std::stringstream ss(std::string("tmAbortProb = ") + v + "\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError) << v;
    }
    {
        std::stringstream ss("lockCount = 4294967296\n");
        EXPECT_THROW(loadWorkloadProfile(ss), ConfigParseError);
    }
    {
        std::stringstream ss("loadFrac = nan\n");
        EXPECT_THROW(loadWorkloadProfile(ss), ConfigParseError);
    }
    // A name outside its token table lists the whole table, in order.
    try {
        workloadProfileForName("bogus");
        ADD_FAILURE() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "workload 'bogus' is not one of "
                               "database|tpcw|specjbb|specweb|tiny");
    }
}

TEST(ConfigIo, TmKnobs)
{
    std::stringstream ss(
        "tmEnabled = true\n"
        "tmAbortProb = 0.25\n"
        "tmAbortPenaltyCycles = 80\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.tm.enabled);
    EXPECT_DOUBLE_EQ(c.tm.abortProb, 0.25);
    EXPECT_DOUBLE_EQ(c.tm.abortPenaltyCycles, 80.0);
}

TEST(ConfigIo, ProfileRoundTrip)
{
    WorkloadProfile p = WorkloadProfile::tpcw();
    std::stringstream ss;
    saveWorkloadProfile(ss, p);
    WorkloadProfile r = loadWorkloadProfile(ss);

    EXPECT_EQ(r.name, p.name);
    EXPECT_DOUBLE_EQ(r.loadFrac, p.loadFrac);
    EXPECT_DOUBLE_EQ(r.storeFrac, p.storeFrac);
    EXPECT_DOUBLE_EQ(r.storeColdProb, p.storeColdProb);
    EXPECT_EQ(r.storeMissRegionBytes, p.storeMissRegionBytes);
    EXPECT_DOUBLE_EQ(r.lockProb, p.lockProb);
    EXPECT_DOUBLE_EQ(r.cpiOnChip, p.cpiOnChip);
    EXPECT_EQ(r.flushLenMean, p.flushLenMean);
}

TEST(ConfigIo, ProfileBaseSelection)
{
    std::stringstream ss(
        "base = specjbb\n"
        "lockProb = 0.01\n");
    WorkloadProfile p = loadWorkloadProfile(ss);
    EXPECT_EQ(p.name, "SPECjbb");
    EXPECT_DOUBLE_EQ(p.lockProb, 0.01);
    // Other knobs come from the base profile.
    EXPECT_DOUBLE_EQ(p.storeFrac, WorkloadProfile::specjbb().storeFrac);
}

TEST(ConfigIo, BaseMustComeFirst)
{
    std::stringstream ss(
        "lockProb = 0.01\n"
        "base = specjbb\n");
    EXPECT_THROW(loadWorkloadProfile(ss), ConfigParseError);
}

TEST(ConfigIo, ProfileRejectsUnknownKey)
{
    std::stringstream ss("storeFrequency = 0.1\n");
    EXPECT_THROW(loadWorkloadProfile(ss), ConfigParseError);
}

TEST(ConfigIo, MissingFileThrows)
{
    EXPECT_THROW(loadSimConfigFile("/nonexistent/x.cfg"),
                 ConfigParseError);
    EXPECT_THROW(loadWorkloadProfileFile("/nonexistent/x.prof"),
                 ConfigParseError);
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/storemlp_cfg_test.cfg";
    {
        std::ofstream ofs(path);
        SimConfig c = SimConfig::pc3();
        c.storeBufferSize = 8;
        saveSimConfig(ofs, c);
    }
    SimConfig r = loadSimConfigFile(path);
    EXPECT_TRUE(r.sle);
    EXPECT_EQ(r.storeBufferSize, 8u);
}

TEST(ConfigIo, ShippedPresetsLoad)
{
    // The configs/ presets must stay loadable as the schema evolves.
    const char *files[] = {"pc1.cfg", "pc2.cfg", "pc3.cfg",
                           "wc1.cfg", "wc2.cfg", "wc3.cfg",
                           "hws2.cfg", "rmo1.cfg", "wmm1.cfg"};
    int loaded = 0;
    for (const char *f : files) {
        // Tests run from the build tree; look for the source configs.
        for (const std::string &prefix :
             {std::string("configs/"), std::string("../configs/"),
              std::string("../../configs/")}) {  // NOLINT
            std::ifstream probe(prefix + f);
            if (!probe)
                continue;
            SimConfig c = loadSimConfigFile(prefix + f);
            EXPECT_FALSE(c.name.empty());
            ++loaded;
            break;
        }
    }
    if (loaded == 0)
        GTEST_SKIP() << "configs/ not reachable from test cwd";
    EXPECT_EQ(loaded, 9);
}

TEST(ConfigIo, ModelKeyParsesPresets)
{
    std::stringstream ss("model = rmo\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::rmo());
}

TEST(ConfigIo, ModelKeyParsesDescriptorList)
{
    std::stringstream ss("model = wc,commit=inorder\n");
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.memoryModel.inOrderCommit());
    EXPECT_EQ(c.memoryModel.coalesce, CoalesceScope::ToYoungestFence);
    EXPECT_EQ(c.memoryModel.name, "custom");
}

TEST(ConfigIo, ModelKeyRejectsBadValues)
{
    {
        std::stringstream ss("model = bogus\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    {
        std::stringstream ss("model = pc,frobnicate=yes\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
    {
        std::stringstream ss("model = pc,commit=sideways\n");
        EXPECT_THROW(loadSimConfig(ss), ConfigParseError);
    }
}

TEST(ConfigIo, CustomDescriptorRoundTrip)
{
    // A descriptor that matches no preset must survive
    // save -> load unchanged, via its canonical spec().
    SimConfig c;
    c.memoryModel = ModelDescriptor::parse("wc,commit=inorder");
    std::stringstream ss;
    saveSimConfig(ss, c);
    SimConfig r = loadSimConfig(ss);
    EXPECT_EQ(r.memoryModel, c.memoryModel);
    EXPECT_TRUE(r.memoryModel.sameRules(c.memoryModel));
}

TEST(ConfigIo, PresetDescriptorSpecRoundTrip)
{
    for (const ModelDescriptor &m : ModelDescriptor::presets())
        EXPECT_TRUE(
            ModelDescriptor::parse(m.spec()).sameRules(m))
            << m.name;
}

TEST(ConfigIo, PresetPc3Semantics)
{
    std::stringstream ss;
    saveSimConfig(ss, SimConfig::pc3());
    SimConfig c = loadSimConfig(ss);
    EXPECT_TRUE(c.sle);
    EXPECT_TRUE(c.prefetchPastSerializing);
    EXPECT_EQ(c.memoryModel, ModelDescriptor::pc());
}

// ---------------------------------------------------------------------
// Frozen save text, exact round trips and bounded fuzzing
// ---------------------------------------------------------------------

/** The shipped .cfg files under configs/, sorted by name. */
std::vector<std::filesystem::path>
shippedConfigFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &e :
         std::filesystem::directory_iterator(STOREMLP_CONFIG_DIR)) {
        if (e.path().extension() == ".cfg")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
savedConfig(const SimConfig &c)
{
    std::ostringstream os;
    saveSimConfig(os, c);
    return os.str();
}

std::string
savedProfile(const WorkloadProfile &p)
{
    std::ostringstream os;
    saveWorkloadProfile(os, p);
    return os.str();
}

std::string
digest(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(test::fnv1a(text)));
    return buf;
}

std::vector<std::pair<std::string, WorkloadProfile>>
builtinProfiles()
{
    return {{"database", WorkloadProfile::database()},
            {"tpcw", WorkloadProfile::tpcw()},
            {"specjbb", WorkloadProfile::specjbb()},
            {"specweb", WorkloadProfile::specweb()},
            {"tiny", WorkloadProfile::testTiny()}};
}

// Digests of the save text recorded before the codecs became
// table-driven, never regenerated: a codec change must keep every key,
// its order and its number text.
TEST(ConfigIo, FrozenShippedConfigSaveText)
{
    const std::pair<const char *, const char *> want[] = {
        {"hws2", "773fbb5d9153405d"}, {"pc1", "ad99934fb3de3e73"},
        {"pc2", "2709032df2a03dfc"},  {"pc3", "789a0d5d04e0f8de"},
        {"rmo1", "3ad9cdf64a5f5ae4"}, {"wc1", "acbdfddb244e104a"},
        {"wc2", "d30e133020a2db5a"},  {"wc3", "4fd3eb0e9133915c"},
        {"wmm1", "8962a77853a5c728"}};
    std::vector<std::filesystem::path> files = shippedConfigFiles();
    ASSERT_EQ(files.size(), std::size(want));
    for (size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(files[i].stem().string(), want[i].first);
        std::string text = savedConfig(loadSimConfigFile(files[i]));
        EXPECT_EQ(digest(text), want[i].second) << text;
    }
}

// The full save text is pinned, and so is the text without the
// `sharedLoadFrac` and `target*` lines, which the profile codec did
// not carry before: those five digests predate the rows and still
// hold, so the rows changed nothing else.
TEST(ConfigIo, FrozenBuiltinProfileSaveText)
{
    const char *want[] = {"d521fb4403378f8d", "aac93bceca43f66b",
                          "d7b6dd463fafa547", "eeb793b603657165",
                          "02f90715d54db23f"};
    const char *want_without_new_keys[] = {
        "d37c2d26a7286b94", "2cc2759163e2ce60", "7c36ca1338b174f8",
        "fbd01253d3c1e245", "af58b012fcafcaa2"};
    auto profiles = builtinProfiles();
    ASSERT_EQ(profiles.size(), std::size(want));
    for (size_t i = 0; i < profiles.size(); ++i) {
        std::string text = savedProfile(profiles[i].second);
        EXPECT_EQ(digest(text), want[i]) << profiles[i].first;
        std::istringstream is(text);
        std::string line, old_text;
        int dropped = 0;
        while (std::getline(is, line)) {
            if (line.rfind("sharedLoadFrac = ", 0) == 0 ||
                line.rfind("target", 0) == 0) {
                ++dropped;
                continue;
            }
            old_text += line + "\n";
        }
        EXPECT_EQ(dropped, 5) << profiles[i].first;
        EXPECT_EQ(digest(old_text), want_without_new_keys[i])
            << profiles[i].first;
    }
}

uint64_t
bits(double d)
{
    return std::bit_cast<uint64_t>(d);
}

#define SAME(f) EXPECT_EQ(a.f, b.f) << #f
#define SAME_BITS(f) EXPECT_EQ(bits(a.f), bits(b.f)) << #f

/** Every field the SimConfig text carries; doubles bitwise. */
void
expectSameConfig(const SimConfig &a, const SimConfig &b)
{
    SAME(name); SAME(fetchBufferSize); SAME(issueWindowSize);
    SAME(robSize); SAME(storeBufferSize); SAME(storeQueueSize);
    SAME(loadBufferSize); SAME(storePrefetch); SAME(coalesceBytes);
    SAME(infiniteStoreQueue); SAME(perfectStores); SAME(memoryModel);
    SAME(sle); SAME(tm.enabled); SAME_BITS(tm.abortProb);
    SAME_BITS(tm.abortPenaltyCycles); SAME(prefetchPastSerializing);
    SAME(scout); SAME(missLatency); SAME_BITS(cpiOnChip);
    SAME_BITS(mispredictPenalty);
}

/** Every field the WorkloadProfile text carries; doubles bitwise. */
void
expectSameProfile(const WorkloadProfile &a, const WorkloadProfile &b)
{
    SAME(name); SAME_BITS(loadFrac); SAME_BITS(storeFrac);
    SAME_BITS(branchFrac); SAME_BITS(loadColdProb);
    SAME_BITS(loadBurstCont); SAME_BITS(storeColdProb);
    SAME_BITS(storeBurstCont); SAME(coldStoresPerLine);
    SAME(storeSpatialRun); SAME_BITS(storeRevisitFrac);
    SAME_BITS(flushPhaseProb); SAME(flushLenMean);
    SAME_BITS(flushStoreFrac); SAME_BITS(flushColdProb);
    SAME_BITS(burstPhaseProb); SAME(burstLenMean);
    SAME_BITS(burstStoreFrac); SAME_BITS(burstColdProb);
    SAME_BITS(instColdProb); SAME_BITS(instBurstCont);
    SAME(hotDataBytes); SAME_BITS(hotL1Frac); SAME(hotL1Bytes);
    SAME(hotCodeBytes); SAME(hotCodeWindowBytes);
    SAME_BITS(hotCodeJumpProb); SAME(storeMissRegionBytes);
    SAME_BITS(sharedStoreFrac); SAME(sharedStoreRegionBytes);
    SAME_BITS(sharedHotFrac); SAME(sharedHotBytes);
    SAME_BITS(sharedLoadFrac); SAME_BITS(lockProb); SAME(lockCount);
    SAME(csBodyLen); SAME_BITS(membarProb); SAME_BITS(easyBranchFrac);
    SAME_BITS(branchBias); SAME(staticBranches);
    SAME_BITS(branchDependsOnLoadProb); SAME_BITS(depNearProb);
    SAME_BITS(targetStoresPer100); SAME_BITS(targetStoreMissPer100);
    SAME_BITS(targetLoadMissPer100); SAME_BITS(targetInstMissPer100);
    SAME_BITS(cpiOnChip);
}

#undef SAME
#undef SAME_BITS

/**
 * Fixed-seed random valid values: u32 extremes, and doubles with 53
 * random mantissa bits, most of which need all 17 significant digits.
 */
struct RandomValues
{
    std::mt19937_64 rng{20051112};

    uint32_t
    u32()
    {
        uint64_t pick = rng() % 4;
        return pick == 0 ? UINT32_MAX
            : pick == 1  ? 0
                         : static_cast<uint32_t>(rng());
    }
    uint64_t u64() { return rng() % 4 == 0 ? UINT64_MAX : rng(); }
    bool flag() { return rng() & 1; }

    double
    real()
    {
        double unit = std::ldexp(static_cast<double>(rng() >> 11), -53);
        static const double scales[] = {1.0, 1e-5, 1e6};
        return unit * scales[rng() % 3];
    }

    std::string name() { return "n" + std::to_string(rng() % 100000); }

    SimConfig
    config()
    {
        SimConfig c;
        c.name = name();
        c.fetchBufferSize = u32();
        c.issueWindowSize = u32();
        c.robSize = u32();
        c.storeBufferSize = u32();
        c.storeQueueSize = u32();
        c.loadBufferSize = u32();
        c.storePrefetch = static_cast<StorePrefetch>(rng() % 3);
        c.coalesceBytes = u32();
        c.infiniteStoreQueue = flag();
        c.perfectStores = flag();
        const std::vector<ModelDescriptor> &presets =
            ModelDescriptor::presets();
        c.memoryModel = rng() % 4 == 0
            ? ModelDescriptor::parse("wc,commit=inorder")
            : presets[rng() % presets.size()];
        c.sle = flag();
        c.tm.enabled = flag();
        c.tm.abortProb = real();
        c.tm.abortPenaltyCycles = real();
        c.prefetchPastSerializing = flag();
        c.scout = static_cast<ScoutMode>(rng() % 4);
        c.missLatency = u32();
        c.cpiOnChip = real();
        c.mispredictPenalty = real();
        return c;
    }

    WorkloadProfile
    profile()
    {
        WorkloadProfile p;
        p.name = name();
        for (double *d :
             {&p.loadFrac, &p.storeFrac, &p.branchFrac, &p.loadColdProb,
              &p.loadBurstCont, &p.storeColdProb, &p.storeBurstCont,
              &p.storeRevisitFrac, &p.flushPhaseProb, &p.flushStoreFrac,
              &p.flushColdProb, &p.burstPhaseProb, &p.burstStoreFrac,
              &p.burstColdProb, &p.instColdProb, &p.instBurstCont,
              &p.hotL1Frac, &p.hotCodeJumpProb, &p.sharedStoreFrac,
              &p.sharedHotFrac, &p.sharedLoadFrac, &p.lockProb,
              &p.membarProb, &p.easyBranchFrac, &p.branchBias,
              &p.branchDependsOnLoadProb, &p.depNearProb,
              &p.targetStoresPer100, &p.targetStoreMissPer100,
              &p.targetLoadMissPer100, &p.targetInstMissPer100,
              &p.cpiOnChip})
            *d = real();
        for (uint32_t *u :
             {&p.coldStoresPerLine, &p.storeSpatialRun, &p.flushLenMean,
              &p.burstLenMean, &p.lockCount, &p.csBodyLen,
              &p.staticBranches})
            *u = u32();
        for (uint64_t *u :
             {&p.hotDataBytes, &p.hotL1Bytes, &p.hotCodeBytes,
              &p.hotCodeWindowBytes, &p.storeMissRegionBytes,
              &p.sharedStoreRegionBytes, &p.sharedHotBytes})
            *u = u64();
        return p;
    }
};

// load(save(x)) == x field by field (doubles bitwise) and
// save(load(save(x))) == save(x), over the shipped configs and random
// valid values.
TEST(ConfigIo, SimConfigTextRoundTripsExactly)
{
    std::vector<SimConfig> values;
    for (const auto &f : shippedConfigFiles())
        values.push_back(loadSimConfigFile(f.string()));
    RandomValues r;
    for (int i = 0; i < 300; ++i)
        values.push_back(r.config());
    // Double extremes: the largest finite and the smallest subnormal.
    values.push_back(SimConfig{});
    values.back().cpiOnChip = std::numeric_limits<double>::max();
    values.back().mispredictPenalty =
        std::numeric_limits<double>::denorm_min();
    for (const SimConfig &x : values) {
        std::string text = savedConfig(x);
        std::istringstream is(text);
        SimConfig back = loadSimConfig(is);
        expectSameConfig(back, x);
        EXPECT_EQ(savedConfig(back), text);
        ASSERT_FALSE(HasFailure()) << text;
    }
}

TEST(ConfigIo, ProfileTextRoundTripsExactly)
{
    std::vector<WorkloadProfile> values;
    for (const auto &[name, p] : builtinProfiles())
        values.push_back(p);
    RandomValues r;
    for (int i = 0; i < 300; ++i)
        values.push_back(r.profile());
    for (const WorkloadProfile &x : values) {
        std::string text = savedProfile(x);
        std::istringstream is(text);
        WorkloadProfile back = loadWorkloadProfile(is);
        expectSameProfile(back, x);
        EXPECT_EQ(savedProfile(back), text);
        ASSERT_FALSE(HasFailure()) << text;
    }
}

/** One fixed-seed mutation: byte flips, a truncation or a splice. */
std::string
mutate(const std::string &text, std::mt19937_64 &rng)
{
    std::string s = text;
    switch (rng() % 3) {
      case 0:
        for (uint64_t n = 1 + rng() % 3; n > 0 && !s.empty(); --n)
            s[rng() % s.size()] = static_cast<char>(rng());
        break;
      case 1:
        s.resize(rng() % (s.size() + 1));
        break;
      default: {
        // Splice the head of one line onto the tail of another, or
        // move a whole line elsewhere.
        std::vector<std::string> lines;
        std::istringstream is(s);
        for (std::string l; std::getline(is, l);)
            lines.push_back(l);
        if (lines.empty())
            break;
        std::string &a = lines[rng() % lines.size()];
        const std::string b = lines[rng() % lines.size()];
        if (rng() & 1) {
            a = a.substr(0, rng() % (a.size() + 1)) +
                b.substr(rng() % (b.size() + 1));
        } else {
            lines.insert(lines.begin() + rng() % (lines.size() + 1), b);
        }
        s.clear();
        for (const std::string &l : lines)
            s += l + "\n";
      }
    }
    return s;
}

/**
 * Feed mutations of `text` to `load` for at most 0.8 s: each must
 * load or throw ConfigError — no other exception, crash or hang.
 */
template <class Load>
void
fuzzLoader(const std::string &text, Load load)
{
    std::mt19937_64 rng(0x5eed);
    auto deadline = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(800);
    int loaded = 0, rejected = 0;
    for (int i = 0;
         i < 4000 && std::chrono::steady_clock::now() < deadline; ++i) {
        std::string input = mutate(text, rng);
        try {
            load(input);
            ++loaded;
        } catch (const ConfigError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << " on:\n" << input;
        }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
}

TEST(ConfigFuzz, ShippedConfigText)
{
    std::string text;
    for (const auto &f : shippedConfigFiles()) {
        std::ifstream ifs(f);
        text += std::string(std::istreambuf_iterator<char>(ifs), {});
    }
    fuzzLoader(text, [](const std::string &in) {
        std::istringstream is(in);
        (void)loadSimConfig(is);
    });
}

TEST(ConfigFuzz, ProfileText)
{
    std::string text = "base = specweb\n" +
        savedProfile(WorkloadProfile::database());
    fuzzLoader(text, [](const std::string &in) {
        std::istringstream is(in);
        (void)loadWorkloadProfile(is);
    });
}

TEST(ConfigFuzz, SweepRequestText)
{
    SweepRequest req;
    for (const auto &f : shippedConfigFiles())
        req.configs.push_back({f.stem().string(),
                               loadSimConfigFile(f.string())});
    req.workloads = {"database", "tpcw", "specjbb", "specweb"};
    req.models = {"pc", "wc", "wc,commit=inorder"};
    req.runFilter = {"tpcw_pc1@PC"};
    fuzzLoader(sweepRequestToText(req), [](const std::string &in) {
        (void)expandSweepRuns(sweepRequestFromText(in));
    });
}

} // namespace
} // namespace storemlp
