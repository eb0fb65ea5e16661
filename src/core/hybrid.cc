#include "core/hybrid.hh"

#include <sstream>

#include "util/logging.hh"

namespace ibp {

std::string
toString(MetaKind kind)
{
    return kind == MetaKind::Confidence ? "confidence" : "selector";
}

void
HybridConfig::validate() const
{
    if (components.size() < 2)
        fatal("hybrid predictor needs >= 2 components");
    if (meta == MetaKind::Selector && components.size() != 2)
        fatal("selector metaprediction supports exactly 2 components");
    if (confidenceBits < 1 || confidenceBits > 8)
        fatal("confidence width %u outside [1, 8]", confidenceBits);
    if (selectorEntries != 0 && !isPowerOfTwo(selectorEntries))
        fatal("selector table size %llu not a power of two",
              static_cast<unsigned long long>(selectorEntries));
    for (const auto &component : components)
        component.validate();
}

std::string
HybridConfig::describe() const
{
    std::ostringstream out;
    out << "hybrid[" << toString(meta) << confidenceBits;
    for (const auto &component : components)
        out << ';' << component.describe();
    out << ']';
    return out.str();
}

HybridConfig
HybridConfig::twoComponent(const TwoLevelConfig &first,
                           const TwoLevelConfig &second)
{
    HybridConfig config;
    config.components = {first, second};
    return config;
}

HybridPredictor::HybridPredictor(const HybridConfig &config)
    : _config(config)
{
    _config.validate();
    for (auto component : _config.components) {
        component.confidenceBits = _config.confidenceBits;
        _components.push_back(
            std::make_unique<TwoLevelPredictor>(component));
    }
    if (_config.meta == MetaKind::Selector &&
        _config.selectorEntries != 0) {
        _selectorTable.assign(_config.selectorEntries, SatCounter(2));
    }
    _cachePreds.resize(_components.size());
}

SatCounter &
HybridPredictor::selectorCounter(Addr pc)
{
    if (!_selectorTable.empty())
        return _selectorTable[(pc >> 2) & (_selectorTable.size() - 1)];
    bool inserted = false;
    return _selectorMap.findOrInsert(pc, inserted);
}

Prediction
HybridPredictor::predict(Addr pc)
{
    for (std::size_t i = 0; i < _components.size(); ++i)
        _cachePreds[i] = _components[i]->predict(pc);
    _cacheValid = true;
    _cachePc = pc;

    int chosen = -1;
    if (_config.meta == MetaKind::Confidence) {
        // Highest confidence wins; ties go to the earlier component
        // (the paper's "fixed ordering"). Components with no entry
        // report confidence -1 and lose to any real entry.
        int best = -2;
        for (std::size_t i = 0; i < _cachePreds.size(); ++i) {
            if (_cachePreds[i].confidence > best) {
                best = _cachePreds[i].confidence;
                chosen = static_cast<int>(i);
            }
        }
        if (chosen >= 0 && !_cachePreds[chosen].valid)
            chosen = -1;
    } else {
        const SatCounter &counter = selectorCounter(pc);
        // Upper half of the counter range prefers component 0.
        chosen = counter.isConfident() ? 0 : 1;
        if (!_cachePreds[chosen].valid)
            chosen ^= 1; // fall back to the other component
        if (!_cachePreds[chosen].valid)
            chosen = -1;
    }

    _lastChosen = chosen;
    if (chosen < 0)
        return Prediction{};
    return _cachePreds[chosen];
}

void
HybridPredictor::update(Addr pc, Addr actual)
{
    if (_config.meta == MetaKind::Selector) {
        // Re-derive the component predictions if the caller skipped
        // predict(). Only the selector consumes them here; confidence
        // metaprediction trains purely through the components.
        if (!_cacheValid || _cachePc != pc) {
            for (std::size_t i = 0; i < _components.size(); ++i)
                _cachePreds[i] = _components[i]->predict(pc);
        }
        const bool first = _cachePreds[0].correctFor(actual);
        const bool second = _cachePreds[1].correctFor(actual);
        SatCounter &counter = selectorCounter(pc);
        if (first && !second)
            counter.increment();
        else if (second && !first)
            counter.decrement();
    }

    // Every component trains on every branch (tables, hysteresis and
    // per-entry confidence), regardless of which one was chosen.
    for (auto &component : _components)
        component->update(pc, actual);

    _cacheValid = false;
}

void
HybridPredictor::observeConditional(Addr pc, bool taken, Addr target)
{
    for (auto &component : _components)
        component->observeConditional(pc, taken, target);
}

bool
HybridPredictor::joinSweepKernel(SweepKernel &kernel)
{
    // Each component keeps its own history when solo, but every one
    // of them observes the same branch stream, so sharing a group
    // register per signature (and one commit per branch) is
    // observationally identical.
    for (auto &component : _components)
        component->joinSweepKernel(kernel);
    return true;
}

void
HybridPredictor::reset()
{
    for (auto &component : _components)
        component->reset();
    for (auto &counter : _selectorTable)
        counter.reset();
    _selectorMap.clear();
    _cacheValid = false;
    _lastChosen = -1;
}

std::string
HybridPredictor::name() const
{
    return _config.describe();
}

std::uint64_t
HybridPredictor::tableCapacity() const
{
    std::uint64_t total = 0;
    for (const auto &component : _components) {
        if (component->tableCapacity() == 0)
            return 0; // any unbounded component makes the sum unbounded
        total += component->tableCapacity();
    }
    return total;
}

std::uint64_t
HybridPredictor::tableOccupancy() const
{
    std::uint64_t total = 0;
    for (const auto &component : _components)
        total += component->tableOccupancy();
    return total;
}

} // namespace ibp
