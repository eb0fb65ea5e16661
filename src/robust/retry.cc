#include "robust/retry.hh"

#include <algorithm>

namespace ibp {

double
RetryPolicy::backoffFor(unsigned next) const
{
    if (next <= 1)
        return 0.0;
    double seconds = initialBackoffSeconds;
    for (unsigned i = 2; i < next; ++i)
        seconds *= backoffMultiplier;
    return std::min(seconds, maxBackoffSeconds);
}

} // namespace ibp
