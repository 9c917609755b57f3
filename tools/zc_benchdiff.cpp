// zc_benchdiff — the perf-regression gate: compare fresh BENCH_*.json
// files against committed baselines (bench/results/) with per-metric
// tolerances.
//
//   zc_benchdiff BASELINE.json FRESH.json [options]
//   zc_benchdiff --baseline-dir DIR FRESH.json... [options]
//
// The second form resolves each fresh file's baseline as DIR/<basename>,
// which is how CI runs it: build the --quick benches, then diff every
// BENCH_*.json against bench/results/.
//
// Metric classes and their defaults:
//   * virtual rates/latencies (latency_*, net_util_pct, cpu_pct_total,
//     mem_*, and any bench-specific extra column): two-sided relative
//     tolerance, default 0.25 (--tol-default F, --tol NAME=F per metric).
//   * counts (total_bytes, logged, blocks, rx_dropped, rate_limited):
//     exact by default — the simulation is deterministic, so a changed
//     count is a changed virtual behaviour, not noise. Only compared when
//     the two files ran at the same depth (equal "quick" flags); a
//     --quick run against a full baseline skips them.
//   * host block (sim_rate, wall_s): one-sided with a generous factor
//     (--wall-tol F, default 2.0; 0 disables) — wall time may grow up to
//     Fx, sim_rate may shrink to 1/Fx. Host metrics are machine-noise;
//     only order-of-magnitude regressions should gate. Like counts,
//     compared only between runs of equal depth (a --quick run is
//     cold-start dominated and incomparable to a full baseline).
//
// --require-rows additionally fails when the fresh file is missing a
// config row the baseline has (renamed rows otherwise just vanish from
// the comparison).
//
// Exit codes: 0 all within tolerance, 1 regression (or missing row with
// --require-rows), 2 usage / unreadable / malformed input.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough for the write_bench_json schema
// (objects, arrays, strings, numbers, booleans, null). No dependencies.
// ---------------------------------------------------------------------
struct JValue {
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JValue> array;
    std::vector<std::pair<std::string, JValue>> object;

    const JValue* find(const std::string& key) const {
        for (const auto& [k, v] : object) {
            if (k == key) return &v;
        }
        return nullptr;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse(JValue& out) { return value(out) && (skip_ws(), pos_ == text_.size()); }

private:
    void skip_ws() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }
    bool literal(const char* word, std::size_t len) {
        if (text_.compare(pos_, len, word) != 0) return false;
        pos_ += len;
        return true;
    }
    bool value(JValue& out) {
        skip_ws();
        if (pos_ >= text_.size()) return false;
        const char c = text_[pos_];
        if (c == '{') return object(out);
        if (c == '[') return array(out);
        if (c == '"') {
            out.type = JValue::Type::kString;
            return string(out.string);
        }
        if (c == 't') {
            out.type = JValue::Type::kBool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.type = JValue::Type::kBool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out.type = JValue::Type::kNull;
            return literal("null", 4);
        }
        return number(out);
    }
    bool number(JValue& out) {
        const char* start = text_.c_str() + pos_;
        char* end = nullptr;
        out.number = std::strtod(start, &end);
        if (end == start) return false;
        out.type = JValue::Type::kNumber;
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }
    bool string(std::string& out) {
        if (text_[pos_] != '"') return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c == '\\') {
                if (pos_ >= text_.size()) return false;
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u':  // bench files are ASCII; keep the escape raw
                        if (pos_ + 4 > text_.size()) return false;
                        out += "\\u" + text_.substr(pos_, 4);
                        pos_ += 4;
                        break;
                    default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }
    bool array(JValue& out) {
        out.type = JValue::Type::kArray;
        ++pos_;  // '['
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JValue element;
            if (!value(element)) return false;
            out.array.push_back(std::move(element));
            skip_ws();
            if (pos_ >= text_.size()) return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }
    bool object(JValue& out) {
        out.type = JValue::Type::kObject;
        ++pos_;  // '{'
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (pos_ >= text_.size() || !string(key)) return false;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') return false;
            ++pos_;
            JValue element;
            if (!value(element)) return false;
            out.object.emplace_back(std::move(key), std::move(element));
            skip_ws();
            if (pos_ >= text_.size()) return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------
constexpr const char* kCountMetrics[] = {
    "total_bytes",        "logged",
    "blocks",             "rx_dropped",
    "rate_limited",       "net_dropped",
    "net_dropped_loss",   "net_dropped_partition",
    "net_dropped_overflow", "net_dropped_corrupt"};

bool is_count_metric(const std::string& name) {
    for (const char* m : kCountMetrics) {
        if (name == m) return true;
    }
    return false;
}

struct Options {
    double tol_default = 0.25;
    double wall_tol = 2.0;
    bool require_rows = false;
    std::map<std::string, double> tol_by_metric;

    double tolerance(const std::string& metric) const {
        const auto it = tol_by_metric.find(metric);
        if (it != tol_by_metric.end()) return it->second;
        if (is_count_metric(metric)) return 0.0;
        return tol_default;
    }
};

struct DiffStats {
    int compared = 0;
    int failed = 0;
};

/// Two-sided check of `fresh` against `base` with relative tolerance.
bool within(double base, double fresh, double tol) {
    const double diff = std::fabs(fresh - base);
    if (diff == 0.0) return true;
    const double denom = std::fabs(base);
    if (denom < 1e-12) return diff <= 1e-12;  // zero baseline: must stay zero
    return diff / denom <= tol;
}

bool load_json(const char* path, JValue& out) {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "zc_benchdiff: cannot read %s\n", path);
        return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    JsonParser parser(text);
    if (!parser.parse(out) || out.type != JValue::Type::kObject) {
        std::fprintf(stderr, "zc_benchdiff: %s is not valid JSON\n", path);
        return false;
    }
    return true;
}

bool quick_flag(const JValue& doc) {
    const JValue* q = doc.find("quick");
    return q != nullptr && q->type == JValue::Type::kBool && q->boolean;
}

/// Compares one fresh bench file against its baseline. Returns false on a
/// regression; prints every violation.
bool diff_files(const char* base_path, const char* fresh_path, const Options& opt,
                DiffStats& stats, bool& parse_error) {
    JValue base, fresh;
    if (!load_json(base_path, base) || !load_json(fresh_path, fresh)) {
        parse_error = true;
        return false;
    }

    const JValue* base_rows = base.find("rows");
    const JValue* fresh_rows = fresh.find("rows");
    if (base_rows == nullptr || fresh_rows == nullptr ||
        base_rows->type != JValue::Type::kArray ||
        fresh_rows->type != JValue::Type::kArray) {
        std::fprintf(stderr, "zc_benchdiff: %s or %s has no rows[]\n", base_path, fresh_path);
        parse_error = true;
        return false;
    }

    // Count metrics are only meaningful at equal bench depth: a --quick
    // run produces different row durations/seeds than the committed full
    // results.
    const bool same_depth = quick_flag(base) == quick_flag(fresh);

    bool ok = true;
    for (const JValue& brow : base_rows->array) {
        const JValue* cfg = brow.find("config");
        if (cfg == nullptr || cfg->type != JValue::Type::kString) continue;

        const JValue* frow = nullptr;
        for (const JValue& candidate : fresh_rows->array) {
            const JValue* fcfg = candidate.find("config");
            if (fcfg != nullptr && fcfg->string == cfg->string) {
                frow = &candidate;
                break;
            }
        }
        if (frow == nullptr) {
            if (opt.require_rows) {
                std::printf("MISSING %s: row \"%s\" absent from %s\n", base_path,
                            cfg->string.c_str(), fresh_path);
                ok = false;
            }
            continue;
        }

        for (const auto& [metric, bval] : brow.object) {
            if (metric == "config" || bval.type != JValue::Type::kNumber) continue;
            if (is_count_metric(metric) && !same_depth) continue;
            const JValue* fval = frow->find(metric);
            if (fval == nullptr || fval->type != JValue::Type::kNumber) continue;
            ++stats.compared;
            const double tol = opt.tolerance(metric);
            if (!within(bval.number, fval->number, tol)) {
                std::printf("FAIL %s \"%s\" %s: baseline %.6g fresh %.6g (tol %.0f%%)\n",
                            fresh_path, cfg->string.c_str(), metric.c_str(), bval.number,
                            fval->number, tol * 100.0);
                ++stats.failed;
                ok = false;
            }
        }
    }

    // Host block: one-sided, generous. Only gate when both sides carry
    // measurements (older baselines may predate the host block) AND ran
    // at the same depth — a --quick run is cold-start dominated, so its
    // wall_s and sim_rate are incomparable to a full baseline's.
    if (opt.wall_tol > 0.0 && same_depth) {
        const JValue* bhost = base.find("host");
        const JValue* fhost = fresh.find("host");
        if (bhost != nullptr && fhost != nullptr) {
            const JValue* bwall = bhost->find("wall_s");
            const JValue* fwall = fhost->find("wall_s");
            if (bwall != nullptr && fwall != nullptr &&
                fwall->number > bwall->number * opt.wall_tol) {
                std::printf("FAIL %s host wall_s: baseline %.3f fresh %.3f (> %.1fx)\n",
                            fresh_path, bwall->number, fwall->number, opt.wall_tol);
                ++stats.failed;
                ok = false;
            }
            const JValue* brate = bhost->find("sim_rate");
            const JValue* frate = fhost->find("sim_rate");
            if (brate != nullptr && frate != nullptr && brate->number > 0 &&
                frate->number < brate->number / opt.wall_tol) {
                std::printf("FAIL %s host sim_rate: baseline %.2fx fresh %.2fx (< 1/%.1f)\n",
                            fresh_path, brate->number, frate->number, opt.wall_tol);
                ++stats.failed;
                ok = false;
            }
        }
    }

    return ok;
}

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s BASELINE.json FRESH.json [options]\n"
                 "       %s --baseline-dir DIR FRESH.json... [options]\n"
                 "options: [--tol-default F] [--tol NAME=F]... [--wall-tol F]\n"
                 "         [--require-rows]\n",
                 argv0, argv0);
    std::exit(2);
}

std::string basename_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string baseline_dir;
    std::vector<std::string> files;

    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: flag %s needs a value\n", argv[0], argv[i]);
            usage(argv[0]);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--baseline-dir") {
            baseline_dir = need_value(i);
        } else if (flag == "--tol-default") {
            opt.tol_default = std::atof(need_value(i));
        } else if (flag == "--tol") {
            const std::string spec = need_value(i);
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos) {
                std::fprintf(stderr, "%s: --tol wants NAME=F\n", argv[0]);
                usage(argv[0]);
            }
            opt.tol_by_metric[spec.substr(0, eq)] = std::atof(spec.c_str() + eq + 1);
        } else if (flag == "--wall-tol") {
            opt.wall_tol = std::atof(need_value(i));
        } else if (flag == "--require-rows") {
            opt.require_rows = true;
        } else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-') {
            std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], flag.c_str());
            usage(argv[0]);
        } else {
            files.push_back(flag);
        }
    }

    std::vector<std::pair<std::string, std::string>> pairs;  // (baseline, fresh)
    if (!baseline_dir.empty()) {
        if (files.empty()) usage(argv[0]);
        for (const std::string& fresh : files) {
            pairs.emplace_back(baseline_dir + "/" + basename_of(fresh), fresh);
        }
    } else {
        if (files.size() != 2) usage(argv[0]);
        pairs.emplace_back(files[0], files[1]);
    }

    DiffStats stats;
    bool parse_error = false;
    bool ok = true;
    for (const auto& [base, fresh] : pairs) {
        if (!diff_files(base.c_str(), fresh.c_str(), opt, stats, parse_error)) ok = false;
    }
    if (parse_error) return 2;

    std::printf("zc_benchdiff: %d metric(s) compared across %zu file(s), %d failure(s)\n",
                stats.compared, pairs.size(), stats.failed);
    return ok ? 0 : 1;
}
