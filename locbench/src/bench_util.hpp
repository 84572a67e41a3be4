/**
 * @file
 * Measurement plumbing of the localization benchmark: the one clock,
 * sample summaries, the in-memory span trace, the resident-memory
 * sampler and the result record every workload fills.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace locbench {

/** The single clock behind every span and timing of the benchmark. */
using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);
double secondsSince(Clock::time_point t0);

/** Median of @p v (0 for an empty set). */
double median(std::vector<double> v);

/**
 * A latency sample set reduced to its median and its tail: the highest
 * order statistic that still has at least ten samples beyond it (the
 * 11th largest), together with the percentile that statistic sits at
 * and the sample count.
 */
struct Summary
{
    double p50 = 0.0;
    double tail = 0.0;
    double tail_percentile = 0.0;
    long n = 0;
};

/** Sets with fewer than this many samples have no defined tail. */
constexpr long kMinTailSamples = 11;

Summary summarize(std::vector<double> v);

/** One reported metric with the sample count and percentile behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    long n = 0;             //!< samples behind the value (0: a count)
    double percentile = 0.0; //!< 50 for medians, the tail percentile, ...
};

/** What one workload run produces. */
struct Result
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /** Run metadata as (key, JSON-encoded value) pairs. */
    std::vector<std::pair<std::string, std::string>> meta;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> violations;
    long attempted = 0;
    long failed = 0;

    void e2e(const std::string &name, double value, const std::string &unit,
             long n = 0, double percentile = 0.0);
    void layer(const std::string &name, double value,
               const std::string &unit, long n = 0,
               double percentile = 0.0);
    void addMeta(const std::string &key, const std::string &json_value);
    void violate(const std::string &what);
};

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);
/** JSON number with every digit of @p v (non-finite values become 0). */
std::string jsonNumber(double v);

/**
 * In-memory span trace: name, start, end, parent span and the id of the
 * frame the span belongs to. Spans are appended from any thread and
 * written once, at the end, as Chrome trace-event JSON.
 */
class Trace
{
  public:
    explicit Trace(bool enabled);

    bool enabled() const { return enabled_; }

    /** Records a finished span; @return its index (-1 when disabled). */
    int add(const char *name, long frame, int parent, Clock::time_point start,
            Clock::time_point end, int track);

    /** Opens a span whose end is set later with close(). */
    int open(const char *name, long frame, int parent,
             Clock::time_point start, int track);
    void close(int span, Clock::time_point end);

    /** Writes the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        long frame;
        int parent;
        int track;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/**
 * Samples the process's resident set while alive and keeps the peak.
 * Joins its thread on stop() or destruction.
 */
class RssSampler
{
  public:
    RssSampler();
    ~RssSampler();

    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stops sampling; @return the peak resident set in bytes. */
    size_t stop();

  private:
    std::atomic<bool> stop_{false};
    std::atomic<size_t> peak_{0};
    std::thread thread_;
};

/** Current resident set of this process, bytes (0 when unknown). */
size_t residentBytes();

/**
 * Returns freed heap memory to the system where the C library allows it
 * (glibc), so that a later resident-set peak counts live memory, not
 * what the allocator kept from work that has ended.
 */
void trimHeap();

/** System-wide CPU time counters (all zero when unavailable), ticks. */
struct CpuTicks
{
    unsigned long long steal = 0;
    unsigned long long total = 0;
};
CpuTicks cpuTicks();

/**
 * Share of CPU time the hypervisor took from this machine between two
 * readings, in percent: the host contention behind a noisy timing.
 */
double stealPct(const CpuTicks &from, const CpuTicks &to);

} // namespace locbench
