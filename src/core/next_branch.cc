#include "core/next_branch.hh"

namespace ibp {

namespace {

PatternSpec
fullPrecisionSpec(unsigned path_length)
{
    PatternSpec spec;
    spec.pathLength = path_length;
    spec.precision = PrecisionMode::Full;
    return spec;
}

} // namespace

NextBranchPredictor::NextBranchPredictor(unsigned path_length,
                                         bool hysteresis)
    : _hysteresis(hysteresis),
      _builder(fullPrecisionSpec(path_length)),
      _history(path_length, 32)
{
}

NextBranchPrediction
NextBranchPredictor::predict(Addr pc)
{
    const Key key = _builder.buildKey(pc, _history.buffer(pc));
    const Entry *entry = _entries.find(key);
    if (entry == nullptr)
        return NextBranchPrediction{};
    return NextBranchPrediction{true, entry->target, entry->nextPc};
}

void
NextBranchPredictor::update(Addr pc, Addr actual, Addr next_pc)
{
    const Key key = _builder.buildKey(pc, _history.buffer(pc));
    bool inserted = false;
    Entry &entry = _entries.findOrInsert(key, inserted);
    if (inserted) {
        entry.target = actual;
        entry.nextPc = next_pc;
    } else if (entry.target == actual && entry.nextPc == next_pc) {
        entry.hysteresis.hit();
    } else if (!_hysteresis || entry.hysteresis.miss()) {
        entry.target = actual;
        entry.nextPc = next_pc;
    }
    _history.push(pc, actual);
}

void
NextBranchPredictor::reset()
{
    _entries.clear();
    _history.reset();
}

std::string
NextBranchPredictor::name() const
{
    return "nextbranch[p=" +
           std::to_string(_builder.spec().pathLength) + "]";
}

} // namespace ibp
