#include "spans.hh"

#include <algorithm>
#include <cstdio>

#include "common/json.hh"

namespace perfbench
{

namespace
{

/** Length of the union of @p iv clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> iv, double lo,
            double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        if (open)
            covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    if (open)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

int
SpanRecorder::open(std::string name, std::string layer, int run)
{
    Span s;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.run = run;
    s.parent = current();
    s.start = now();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    spans_[static_cast<size_t>(id)].end = now();
    // Spans close innermost first; one that does not stays on the
    // stack and check() reports it.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int
SpanRecorder::add(Span s)
{
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[i] = (s.end - s.start) - unionLength(kids[i], s.start, s.end);
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::selfByLayer() const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, double> by;
    for (size_t i = 0; i < spans_.size(); ++i)
        by[spans_[i].layer] += self[i];
    return by;
}

double
SpanRecorder::total(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            t += s.end - s.start;
    return t;
}

SpanCheck
SpanRecorder::check(double window_start, double window_end,
                    double min_coverage) const
{
    SpanCheck c;
    auto fail = [&c](std::string why) {
        if (c.ok)
            c.error = std::move(why);
        c.ok = false;
    };
    if (!stack_.empty())
        fail("spans still open");
    const std::vector<double> self = selfTimes();
    std::vector<std::pair<double, double>> top;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < s.start)
            fail("span " + s.name + " ends before it starts");
        if (self[i] < 0.0)
            fail("span " + s.name + " has negative self time");
        if (s.parent < 0) {
            top.emplace_back(s.start, s.end);
            if (s.start < window_start || s.end > window_end)
                fail("top-level span " + s.name + " leaves the window");
            continue;
        }
        const Span &p = spans_[static_cast<size_t>(s.parent)];
        if (s.start < p.start || s.end > p.end)
            fail("span " + s.name + " is not inside " + p.name);
        // Run 0 marks a container of several runs (the sweep).
        if (p.run != 0 && s.run != p.run)
            fail("span " + s.name + " changes run id under " + p.name);
    }
    const double len = window_end - window_start;
    c.coverage = len > 0.0 ? unionLength(top, window_start, window_end) / len
                           : 0.0;
    if (c.coverage < min_coverage) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "top-level spans cover %.4f of the traced wall",
                      c.coverage);
        fail(buf);
    }
    return c;
}

std::string
SpanRecorder::chromeJson() const
{
    dmt::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.key("name").value(std::string_view(s.name));
        w.key("cat").value(std::string_view(s.layer));
        w.key("ph").value("X");
        w.key("ts").value(s.start * 1e6);
        w.key("dur").value((s.end - s.start) * 1e6);
        w.key("pid").value(1);
        w.key("tid").value(s.tid);
        w.key("args").beginObject();
        w.key("id").value(static_cast<dmt::u64>(i));
        w.key("parent").value(s.parent);
        w.key("run").value(s.run);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace perfbench
