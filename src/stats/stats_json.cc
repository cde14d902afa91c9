/**
 * @file
 * JSON emitter/parser for StatsRegistry documents.
 */

#include "stats/stats_json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "stats/table.hh"
#include "util/parse.hh"

namespace storemlp
{

// ---------------------------------------------------------------------
// Writer primitives
// ---------------------------------------------------------------------

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    // JSON requires a leading digit series; %g never emits a bare
    // ".5", but it can emit "inf"/"nan" which JSON lacks — the
    // simulator never produces them, guard anyway.
    std::string s = formatDoubleExact(v);
    if (s.find_first_not_of("0123456789+-.eE") != std::string::npos)
        return "0";
    return s;
}

JsonWriter::JsonWriter(std::ostream &os, bool pretty)
    : _os(os), _pretty(pretty)
{
}

void
JsonWriter::raw(std::string_view s)
{
    _os << s;
}

void
JsonWriter::indent()
{
    if (!_pretty)
        return;
    _os << "\n";
    for (size_t i = 0; i < _stack.size(); ++i)
        _os << "  ";
}

void
JsonWriter::separate()
{
    if (_pendingKey) {
        _pendingKey = false;
        return;
    }
    if (_stack.empty())
        return;
    if (!_stack.back().first)
        raw(",");
    _stack.back().first = false;
    indent();
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    raw("{");
    _stack.push_back({false, true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    bool empty = _stack.back().first;
    _stack.pop_back();
    if (!empty)
        indent();
    raw("}");
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    raw("[");
    _stack.push_back({true, true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    bool empty = _stack.back().first;
    _stack.pop_back();
    if (!empty && _pretty)
        indent();
    raw("]");
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (!_stack.back().first)
        raw(",");
    _stack.back().first = false;
    indent();
    raw("\"");
    raw(jsonEscape(k));
    raw(_pretty ? "\": " : "\":");
    _pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    _os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    _os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    _os << jsonDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separate();
    _os << "\"" << jsonEscape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    _os << (v ? "true" : "false");
    return *this;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : _s(text) {}

    JsonValue
    document()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _s.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw StatsJsonError("JSON parse error at offset " +
                             std::to_string(_pos) + ": " + msg);
    }

    void
    skipWs()
    {
        while (_pos < _s.size() &&
               (_s[_pos] == ' ' || _s[_pos] == '\t' ||
                _s[_pos] == '\n' || _s[_pos] == '\r'))
            ++_pos;
    }

    char
    peek()
    {
        skipWs();
        if (_pos >= _s.size())
            fail("unexpected end of input");
        return _s[_pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" +
                 _s[_pos] + "'");
        ++_pos;
    }

    bool
    consumeIf(char c)
    {
        if (_pos < _s.size() && peek() == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (_pos >= _s.size())
                fail("unterminated string");
            char c = _s[_pos++];
            if (c == '"')
                break;
            if (c == '\\') {
                if (_pos >= _s.size())
                    fail("bad escape");
                char e = _s[_pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (_pos + 4 > _s.size())
                        fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = _s[_pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            fail("bad \\u escape");
                    }
                    // The emitter only escapes control characters;
                    // decode BMP code points as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        JsonValue v;
        if (c == '{') {
            ++_pos;
            v._type = JsonValue::Type::Object;
            if (!consumeIf('}')) {
                do {
                    std::string key = parseString();
                    expect(':');
                    v._members.emplace_back(std::move(key),
                                            parseValue());
                } while (consumeIf(','));
                expect('}');
            }
        } else if (c == '[') {
            ++_pos;
            v._type = JsonValue::Type::Array;
            if (!consumeIf(']')) {
                do {
                    v._items.push_back(parseValue());
                } while (consumeIf(','));
                expect(']');
            }
        } else if (c == '"') {
            v._type = JsonValue::Type::String;
            v._scalar = parseString();
        } else if (c == 't' || c == 'f') {
            const char *word = c == 't' ? "true" : "false";
            size_t len = c == 't' ? 4 : 5;
            if (_s.substr(_pos, len) != word)
                fail("bad literal");
            _pos += len;
            v._type = JsonValue::Type::Bool;
            v._bool = c == 't';
        } else if (c == 'n') {
            if (_s.substr(_pos, 4) != "null")
                fail("bad literal");
            _pos += 4;
            v._type = JsonValue::Type::Null;
        } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = _pos;
            if (_s[_pos] == '-')
                ++_pos;
            auto digits = [&] {
                size_t n = 0;
                while (_pos < _s.size() &&
                       std::isdigit(static_cast<unsigned char>(_s[_pos]))) {
                    ++_pos;
                    ++n;
                }
                return n;
            };
            if (!digits())
                fail("bad number");
            if (_pos < _s.size() && _s[_pos] == '.') {
                ++_pos;
                if (!digits())
                    fail("bad number");
            }
            if (_pos < _s.size() && (_s[_pos] == 'e' || _s[_pos] == 'E')) {
                ++_pos;
                if (_pos < _s.size() &&
                    (_s[_pos] == '+' || _s[_pos] == '-'))
                    ++_pos;
                if (!digits())
                    fail("bad number");
            }
            v._type = JsonValue::Type::Number;
            v._scalar = std::string(_s.substr(start, _pos - start));
        } else {
            fail(std::string("unexpected character '") + c + "'");
        }
        return v;
    }

    std::string_view _s;
    size_t _pos = 0;
};

JsonValue
JsonValue::parse(std::string_view text)
{
    return JsonParser(text).document();
}

bool
JsonValue::isUnsignedIntegral() const
{
    if (_type != Type::Number)
        return false;
    return _scalar.find_first_of(".eE-") == std::string::npos;
}

bool
JsonValue::boolean() const
{
    if (_type != Type::Bool)
        throw StatsJsonError("JSON value is not a boolean");
    return _bool;
}

uint64_t
JsonValue::asU64() const
{
    if (!isUnsignedIntegral())
        throw StatsJsonError("JSON value is not an unsigned integer: " +
                             _scalar);
    return std::strtoull(_scalar.c_str(), nullptr, 10);
}

double
JsonValue::asDouble() const
{
    if (_type != Type::Number)
        throw StatsJsonError("JSON value is not a number");
    return std::strtod(_scalar.c_str(), nullptr);
}

const std::string &
JsonValue::asString() const
{
    if (_type != Type::String)
        throw StatsJsonError("JSON value is not a string");
    return _scalar;
}

const std::string &
JsonValue::numberToken() const
{
    if (_type != Type::Number)
        throw StatsJsonError("JSON value is not a number");
    return _scalar;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (_type != Type::Object)
        throw StatsJsonError("JSON value is not an object");
    return _members;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw StatsJsonError("missing JSON key '" + key + "'");
    return *v;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (_type != Type::Array)
        throw StatsJsonError("JSON value is not an array");
    return _items;
}

// ---------------------------------------------------------------------
// Registry -> JSON
// ---------------------------------------------------------------------

namespace
{

void
writeHistogram(JsonWriter &w, const BoundedHistogram &h)
{
    w.beginObject();
    w.key("maxBucket").value(uint64_t(h.maxBucket()));
    w.key("buckets").beginArray();
    for (unsigned b = 0; b <= h.maxBucket(); ++b)
        w.value(h.bucket(b));
    w.endArray();
    w.key("overflow").value(h.overflow());
    w.key("total").value(h.total());
    w.key("sum").value(h.sum());
    w.endObject();
}

void
writeJoint(JsonWriter &w, const JointHistogram &j)
{
    w.beginObject();
    w.key("maxX").value(uint64_t(j.maxX()));
    w.key("maxY").value(uint64_t(j.maxY()));
    w.key("cells").beginArray();
    for (unsigned x = 0; x <= j.maxX(); ++x) {
        w.beginArray();
        for (unsigned y = 0; y <= j.maxY(); ++y)
            w.value(j.cell(x, y));
        w.endArray();
    }
    w.endArray();
    w.key("total").value(j.total());
    w.endObject();
}

BoundedHistogram
parseHistogram(const JsonValue &v)
{
    unsigned max_bucket = static_cast<unsigned>(
        v.at("maxBucket").asU64());
    const JsonValue &buckets = v.at("buckets");
    if (buckets.size() != size_t(max_bucket) + 1)
        throw StatsJsonError("histogram bucket count mismatch");
    std::vector<uint64_t> counts;
    counts.reserve(buckets.size());
    for (size_t i = 0; i < buckets.size(); ++i)
        counts.push_back(buckets[i].asU64());
    return BoundedHistogram::fromParts(
        max_bucket, std::move(counts), v.at("total").asU64(),
        v.at("sum").asDouble(), v.at("overflow").asU64());
}

JointHistogram
parseJoint(const JsonValue &v)
{
    unsigned max_x = static_cast<unsigned>(v.at("maxX").asU64());
    unsigned max_y = static_cast<unsigned>(v.at("maxY").asU64());
    const JsonValue &rows = v.at("cells");
    if (rows.size() != size_t(max_x) + 1)
        throw StatsJsonError("joint histogram row count mismatch");
    std::vector<uint64_t> cells;
    cells.reserve(size_t(max_x + 1) * (max_y + 1));
    for (size_t x = 0; x < rows.size(); ++x) {
        const JsonValue &row = rows[x];
        if (row.size() != size_t(max_y) + 1)
            throw StatsJsonError("joint histogram column count mismatch");
        for (size_t y = 0; y < row.size(); ++y)
            cells.push_back(row[y].asU64());
    }
    return JointHistogram::fromParts(max_x, max_y, std::move(cells),
                                     v.at("total").asU64());
}

void
writeMetaBlock(JsonWriter &w, const char *key, const StatsMeta &block)
{
    if (block.empty())
        return;
    w.key(key).beginObject();
    for (const auto &[k, v] : block)
        w.key(k).value(v);
    w.endObject();
}

void
writeEnvelopeHead(JsonWriter &w, const StatsEnvelope &env)
{
    w.beginObject();
    w.key("schemaVersion").value(kStatsSchemaVersion);
    writeMetaBlock(w, "meta", env.meta);
    writeMetaBlock(w, "source", env.source);
    writeMetaBlock(w, "run", env.run);
}

int
checkSchemaVersion(const JsonValue &doc)
{
    const JsonValue &ver = doc.at("schemaVersion");
    if (!ver.isUnsignedIntegral() ||
        ver.asU64() < uint64_t(kStatsSchemaVersionMin) ||
        ver.asU64() > uint64_t(kStatsSchemaVersion))
        throw StatsJsonError(
            "unsupported schemaVersion " +
            (ver.isNumber() ? ver.numberToken()
                            : std::string("<non-numeric>")) +
            " (this build reads versions " +
            std::to_string(kStatsSchemaVersionMin) + ".." +
            std::to_string(kStatsSchemaVersion) + ")");
    return static_cast<int>(ver.asU64());
}

void
readMetaBlock(const JsonValue &doc, const std::string &key,
              StatsMeta &out)
{
    if (const JsonValue *m = doc.find(key)) {
        for (const auto &[k, v] : m->members())
            out.emplace_back(k, v.asString());
    }
}

} // namespace

void
writeStatsJson(std::ostream &os, const StatsRegistry &reg,
               const StatsMeta &meta, bool pretty)
{
    writeStatsJson(os, reg, StatsEnvelope{meta, {}, {}}, pretty);
}

void
writeStatsJson(std::ostream &os, const StatsRegistry &reg,
               const StatsEnvelope &env, bool pretty)
{
    JsonWriter w(os, pretty);
    writeEnvelopeHead(w, env);
    w.key("stats").beginObject();
    for (const StatEntry &e : reg.entries()) {
        w.key(e.name);
        switch (e.kind) {
          case StatKind::Counter: w.value(e.u64); break;
          case StatKind::Scalar: w.value(e.scalar); break;
          case StatKind::Text: w.value(e.text); break;
          case StatKind::Histogram: writeHistogram(w, e.hist); break;
          case StatKind::Joint: writeJoint(w, e.joint); break;
        }
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

std::string
statsToJson(const StatsRegistry &reg, const StatsMeta &meta, bool pretty)
{
    std::ostringstream oss;
    writeStatsJson(oss, reg, meta, pretty);
    return oss.str();
}

std::string
statsToJson(const StatsRegistry &reg, const StatsEnvelope &env,
            bool pretty)
{
    std::ostringstream oss;
    writeStatsJson(oss, reg, env, pretty);
    return oss.str();
}

StatsRegistry
statsFromJson(std::string_view text, StatsMeta *meta)
{
    StatsEnvelope env;
    StatsRegistry reg = statsFromJson(text, &env, nullptr);
    if (meta) {
        meta->insert(meta->end(), env.meta.begin(), env.meta.end());
    }
    return reg;
}

StatsRegistry
statsFromJson(std::string_view text, StatsEnvelope *env, int *version)
{
    JsonValue doc = JsonValue::parse(text);
    int ver = checkSchemaVersion(doc);
    if (version)
        *version = ver;

    if (env) {
        readMetaBlock(doc, "meta", env->meta);
        readMetaBlock(doc, "source", env->source);
        readMetaBlock(doc, "run", env->run);
    }

    StatsRegistry reg;
    const JsonValue &stats = doc.at("stats");
    for (const auto &[name, v] : stats.members()) {
        switch (v.type()) {
          case JsonValue::Type::String:
            reg.text(name, v.asString());
            break;
          case JsonValue::Type::Number:
            if (v.isUnsignedIntegral())
                reg.counter(name, v.asU64());
            else
                reg.scalar(name, v.asDouble());
            break;
          case JsonValue::Type::Object:
            if (v.find("maxBucket"))
                reg.histogram(name, parseHistogram(v));
            else if (v.find("maxX"))
                reg.joint(name, parseJoint(v));
            else
                throw StatsJsonError("stat '" + name +
                                     "' is an unrecognized object");
            break;
          default:
            throw StatsJsonError("stat '" + name +
                                 "' has an unsupported JSON type");
        }
    }
    return reg;
}

// ---------------------------------------------------------------------
// Registry -> CSV
// ---------------------------------------------------------------------

namespace
{

std::string
csvQuote(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
writeStatsCsv(std::ostream &os, const StatsRegistry &reg,
              const StatsMeta &meta)
{
    std::vector<std::string> head;
    std::vector<std::string> row;
    auto col = [&](const std::string &h, std::string v) {
        head.push_back(csvQuote(h));
        row.push_back(std::move(v));
    };

    for (const auto &[k, v] : meta)
        col(k, csvQuote(v));

    for (const StatEntry &e : reg.entries()) {
        switch (e.kind) {
          case StatKind::Counter:
            col(e.name, std::to_string(e.u64));
            break;
          case StatKind::Scalar:
            col(e.name, jsonDouble(e.scalar));
            break;
          case StatKind::Text:
            col(e.name, csvQuote(e.text));
            break;
          case StatKind::Histogram:
            for (unsigned b = 0; b <= e.hist.maxBucket(); ++b)
                col(e.name + ".b" + std::to_string(b),
                    std::to_string(e.hist.bucket(b)));
            col(e.name + ".overflow",
                std::to_string(e.hist.overflow()));
            col(e.name + ".total", std::to_string(e.hist.total()));
            col(e.name + ".sum", jsonDouble(e.hist.sum()));
            break;
          case StatKind::Joint:
            for (unsigned x = 0; x <= e.joint.maxX(); ++x)
                for (unsigned y = 0; y <= e.joint.maxY(); ++y)
                    col(e.name + ".x" + std::to_string(x) + "y" +
                            std::to_string(y),
                        std::to_string(e.joint.cell(x, y)));
            col(e.name + ".total", std::to_string(e.joint.total()));
            break;
        }
    }

    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            if (i)
                os << ",";
            os << cells[i];
        }
        os << "\n";
    };
    emit(head);
    emit(row);
}

std::string
statsToCsv(const StatsRegistry &reg, const StatsMeta &meta)
{
    std::ostringstream oss;
    writeStatsCsv(oss, reg, meta);
    return oss.str();
}

// ---------------------------------------------------------------------
// TextTable -> JSON
// ---------------------------------------------------------------------

void
writeTableJson(std::ostream &os, const TextTable &table,
               const StatsMeta &meta, bool pretty)
{
    JsonWriter w(os, pretty);
    writeEnvelopeHead(w, StatsEnvelope{meta, {}, {}});
    w.key("table").beginObject();
    w.key("title").value(table.title());
    w.key("columns").beginArray();
    for (size_t c = 0; c < table.columns(); ++c)
        w.value(table.headerAt(c));
    w.endArray();
    w.key("rows").beginArray();
    for (size_t r = 0; r < table.rows(); ++r) {
        w.beginArray();
        for (size_t c = 0; c < table.rowWidth(r); ++c)
            w.value(table.at(r, c));
        w.endArray();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace storemlp
