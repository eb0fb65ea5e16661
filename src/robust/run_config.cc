#include "robust/run_config.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "util/logging.hh"

namespace ibp {

namespace {

/** @p value as a retry count: a whole number in [1, 100], else 0. */
unsigned
asCount(double value)
{
    return value >= 1.0 && value <= 100.0 && value == std::floor(value)
               ? static_cast<unsigned>(value)
               : 0;
}

/** Count knob @p name read as an integer ("7.5" is 7), or
 *  @p fallback when unset or outside [1, 100]. */
unsigned
countFromEnv(const char *name, unsigned fallback)
{
    const char *env = std::getenv(name);
    const long count = env ? std::atol(env) : 0;
    return count >= 1 && count <= 100 ? static_cast<unsigned>(count)
                                      : fallback;
}

} // namespace

RunConfig
RunConfig::fromEnvironment(bool quick)
{
    RunConfig config;
    if (const char *env = std::getenv("IBP_EVENTS")) {
        const double scale = std::atof(env);
        config.eventScale =
            std::clamp(scale <= 0 ? 1.0 : scale, 0.01, 100.0);
    } else if (quick) {
        config.eventScale = 0.25;
    }
    if (const char *env = std::getenv("IBP_FAULT_INJECT")) {
        Result<FaultInjector> parsed = FaultInjector::parse(env);
        if (!parsed.ok())
            fatal("IBP_FAULT_INJECT: %s", parsed.error().message.c_str());
        config.faults = std::move(parsed).value();
    }
    config.retry.maxAttempts =
        countFromEnv("IBP_MAX_ATTEMPTS", config.retry.maxAttempts);
    if (const char *env = std::getenv("IBP_CELL_DEADLINE")) {
        const double seconds = std::atof(env);
        if (seconds > 0.0 && std::isfinite(seconds))
            config.retry.cellDeadlineSeconds = seconds;
    }
    config.retry.poisonThreshold = countFromEnv(
        "IBP_POISON_THRESHOLD", config.retry.poisonThreshold);
    return config;
}

Json
RunConfig::toJson() const
{
    Json json = Json::object();
    json.set("event_scale", eventScale);
    json.set("fault_inject", faults.spec());
    json.set("max_attempts", retry.maxAttempts);
    json.set("cell_deadline", retry.cellDeadlineSeconds);
    json.set("poison_threshold", retry.poisonThreshold);
    return json;
}

Result<RunConfig>
RunConfig::fromJson(const Json &json)
{
    RunConfig config;
    try {
        config.eventScale = json.at("event_scale").asNumber();
        config.retry.maxAttempts =
            asCount(json.at("max_attempts").asNumber());
        config.retry.cellDeadlineSeconds =
            json.at("cell_deadline").asNumber();
        config.retry.poisonThreshold =
            asCount(json.at("poison_threshold").asNumber());
        auto faults =
            FaultInjector::parse(json.at("fault_inject").asString());
        if (!faults.ok())
            return faults.error();
        config.faults = std::move(faults).value();
    } catch (const JsonError &error) {
        return RunError::permanent(std::string("run config: ") +
                                   error.what());
    }
    const auto invalid = [](const char *why) {
        return RunError::permanent(std::string("run config: ") + why);
    };
    if (!(config.eventScale >= 0.01 && config.eventScale <= 100.0))
        return invalid("event scale out of [0.01, 100]");
    if (config.retry.maxAttempts == 0)
        return invalid("max attempts out of [1, 100]");
    if (!(config.retry.cellDeadlineSeconds >= 0.0) ||
        !std::isfinite(config.retry.cellDeadlineSeconds))
        return invalid("cell deadline must be a finite number >= 0");
    if (config.retry.poisonThreshold == 0)
        return invalid("poison threshold out of [1, 100]");
    return config;
}

unsigned
simulationThreads()
{
    if (const char *env = std::getenv("IBP_THREADS")) {
        // Clamp to >= 1 so IBP_THREADS=0 (or garbage) still yields
        // a usable serial run instead of silently ignoring the
        // override.
        return static_cast<unsigned>(std::max(1L, std::atol(env)));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 4 : hw;
}

} // namespace ibp
