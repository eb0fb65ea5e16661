/**
 * @file
 * In-memory branch trace with benchmark metadata.
 */

#ifndef IBP_TRACE_TRACE_HH
#define IBP_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/branch_record.hh"

namespace ibp {

/** How a trace's records reached memory (artifact telemetry). */
enum class TraceReadPath : std::uint8_t
{
    Generated = 0, ///< Produced by the synthetic generator.
    Stream = 1,    ///< Parsed from the legacy .ibpt stream format.
    Mmap = 2,      ///< Zero-copy view of an mmap'ed .ibpm cache file.
};

/** "generated" / "stream" / "mmap". */
const char *traceReadPathName(TraceReadPath path);

/**
 * Borrowed column pointers of a columnar trace (see
 * Trace::fromColumnarView): parallel pc/target arrays and the packed
 * meta byte per record (packBranchMeta). Valid while the Trace that
 * produced them (or a copy) is alive.
 */
struct TraceColumns
{
    const Addr *pc = nullptr;
    const Addr *target = nullptr;
    const std::uint8_t *meta = nullptr;
};

/**
 * A branch trace: an ordered sequence of BranchRecord plus metadata
 * identifying the (synthetic) benchmark it came from. Traces are
 * value types; the simulator only ever reads them.
 *
 * Records live in one of two places: an owned vector (generated or
 * parsed traces), or borrowed *columns* (separate pc/target/meta
 * streams, the mmap'ed `.ibpm` layout — see trace/trace_mmap.hh)
 * whose lifetime is held by a shared backing object. Readers that
 * touch data()/size() see both identically — a columnar trace
 * materialises an AoS shadow on first such demand (once, shared
 * across copies) — while block consumers (trace_block.hh) read the
 * columns zero-copy. A mutation (append/reserve) on a columnar trace
 * first materialises a private owned copy.
 */
class Trace
{
  public:
    /**
     * Shared storage of a columnar trace: borrowed column pointers,
     * the backing object that keeps them alive, and a lazily built
     * AoS shadow for record-oriented readers. Shared (not copied)
     * between copies of the owning Trace so the shadow is transposed
     * at most once per underlying file.
     */
    struct ColumnarStorage
    {
        std::shared_ptr<const void> backing;
        const Addr *pc = nullptr;
        const Addr *target = nullptr;
        const std::uint8_t *meta = nullptr;
        std::size_t count = 0;
        std::once_flag aosOnce;
        std::vector<BranchRecord> aos;
    };

    Trace() = default;
    explicit Trace(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    /** Seed the trace was generated from (0 if unknown/recorded). */
    std::uint64_t seed() const { return _seed; }
    void setSeed(std::uint64_t seed) { _seed = seed; }

    /**
     * Number of distinct indirect branch sites the generator emitted
     * (0 when unknown), for sizing per-site accounting up front.
     * Persisted in the `.ibpm` header.
     */
    std::uint32_t siteCountHint() const { return _siteCountHint; }
    void setSiteCountHint(std::uint32_t count) { _siteCountHint = count; }

    /** Transport the records arrived by; metadata only, not
     * identity (excluded from operator==). */
    TraceReadPath readPath() const { return _readPath; }
    void setReadPath(TraceReadPath path) { _readPath = path; }

    void
    reserve(std::size_t n)
    {
        materialise();
        _owned.reserve(n);
    }

    void
    append(const BranchRecord &record)
    {
        materialise();
        _owned.push_back(record);
    }

    const BranchRecord *
    data() const
    {
        if (_columnar)
            return columnarAos();
        return _owned.data();
    }

    std::size_t
    size() const
    {
        if (_columnar)
            return _columnar->count;
        return _owned.size();
    }

    bool empty() const { return size() == 0; }

    std::span<const BranchRecord>
    records() const
    {
        return {data(), size()};
    }

    const BranchRecord &operator[](std::size_t i) const
    {
        return data()[i];
    }

    const BranchRecord *begin() const { return data(); }
    const BranchRecord *end() const { return data() + size(); }

    /**
     * Build a trace over borrowed SoA columns (the `.ibpm` layout):
     * parallel @p pc / @p target arrays and a packed meta byte per
     * record (packBranchMeta). @p backing keeps the columns alive as
     * long as any copy of the returned trace exists.
     */
    static Trace
    fromColumnarView(std::string name, std::uint64_t seed,
                     std::shared_ptr<const void> backing,
                     const Addr *pc, const Addr *target,
                     const std::uint8_t *meta, std::size_t count)
    {
        Trace trace(std::move(name));
        trace._seed = seed;
        trace._columnar = std::make_shared<ColumnarStorage>();
        trace._columnar->backing = std::move(backing);
        trace._columnar->pc = pc;
        trace._columnar->target = target;
        trace._columnar->meta = meta;
        trace._columnar->count = count;
        return trace;
    }

    /** True when the records live as SoA columns (see columns()). */
    bool isColumnar() const { return _columnar != nullptr; }

    /**
     * Borrowed column pointers; only meaningful when isColumnar().
     * Block consumers read these zero-copy instead of forcing the
     * AoS shadow through data().
     */
    TraceColumns
    columns() const
    {
        if (!_columnar)
            return {};
        return {_columnar->pc, _columnar->target, _columnar->meta};
    }

    /** Count records of the kinds predicted as indirect branches. */
    std::uint64_t countPredictedIndirect() const;

    /** Count records of one specific kind. */
    std::uint64_t countKind(BranchKind kind) const;

    /**
     * Trace identity: name, seed and records. Transport metadata
     * (read path, site-count hint, owned-vs-columnar storage) is
     * excluded, so a cache round trip compares equal to the
     * generated original.
     */
    bool operator==(const Trace &other) const;

  private:
    /** Copy borrowed columns into owned storage before mutating. */
    void
    materialise()
    {
        if (!_columnar)
            return;
        const BranchRecord *aos = columnarAos();
        _owned.assign(aos, aos + _columnar->count);
        _columnar.reset();
    }

    /** Transpose the columns into the shared AoS shadow (once). */
    const BranchRecord *columnarAos() const;

    std::string _name;
    std::uint64_t _seed = 0;
    std::uint32_t _siteCountHint = 0;
    TraceReadPath _readPath = TraceReadPath::Generated;
    std::vector<BranchRecord> _owned;
    std::shared_ptr<ColumnarStorage> _columnar;
};

} // namespace ibp

#endif // IBP_TRACE_TRACE_HH
