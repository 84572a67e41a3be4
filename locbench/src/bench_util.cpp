#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace locbench {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = static_cast<long>(v.size());
    if (v.empty())
        return s;
    s.p50 = median(v);
    if (s.n < kMinTailSamples)
        return s;
    std::sort(v.begin(), v.end());
    // The 11th largest sample: ten samples lie beyond it.
    const size_t idx = v.size() - 11;
    s.tail = v[idx];
    s.tail_percentile = 100.0 * static_cast<double>(idx) /
                        static_cast<double>(v.size() - 1);
    return s;
}

void
Result::e2e(const std::string &name, double value, const std::string &unit,
            long n, double percentile)
{
    end_to_end.push_back({name, value, unit, n, percentile});
}

void
Result::layer(const std::string &name, double value, const std::string &unit,
              long n, double percentile)
{
    per_layer.push_back({name, value, unit, n, percentile});
}

void
Result::addMeta(const std::string &key, const std::string &json_value)
{
    meta.emplace_back(key, json_value);
}

void
Result::violate(const std::string &what)
{
    violations.push_back(what);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

Trace::Trace(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 14);
}

int
Trace::add(const char *name, long frame, int parent, Clock::time_point start,
           Clock::time_point end, int track)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back({name, frame, parent, track, start, end});
    return static_cast<int>(spans_.size()) - 1;
}

int
Trace::open(const char *name, long frame, int parent, Clock::time_point start,
            int track)
{
    return add(name, frame, parent, start, start, track);
}

void
Trace::close(int span, Clock::time_point end)
{
    if (span < 0)
        return;
    std::lock_guard<std::mutex> lk(m_);
    spans_[static_cast<size_t>(span)].end = end;
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - origin_)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        f << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
          << ",\"ts\":" << jsonNumber(ts) << ",\"dur\":" << jsonNumber(dur)
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"frame\":" << s.frame << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

size_t
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size_pages = 0, resident_pages = 0;
    const int got = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
    std::fclose(f);
    if (got != 2)
        return 0;
    return static_cast<size_t>(resident_pages) *
           static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

void
trimHeap()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

CpuTicks
cpuTicks()
{
    CpuTicks t;
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return t;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7]);
    std::fclose(f);
    if (got != 8)
        return t;
    for (unsigned long long x : v)
        t.total += x;
    t.steal = v[7];
    return t;
}

double
stealPct(const CpuTicks &from, const CpuTicks &to)
{
    if (to.total <= from.total)
        return 0.0;
    return 100.0 * static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

RssSampler::RssSampler()
{
    peak_ = residentBytes();
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            const size_t now = residentBytes();
            if (now > peak_.load(std::memory_order_relaxed))
                peak_.store(now, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
}

RssSampler::~RssSampler() { stop(); }

size_t
RssSampler::stop()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
    const size_t now = residentBytes();
    return std::max(peak_.load(), now);
}

} // namespace locbench
