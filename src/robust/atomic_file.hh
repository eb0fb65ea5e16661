/**
 * @file
 * Crash-safe whole-file writes.
 *
 * writeFileAtomic() is the single tmp+fsync+atomic-rename path every
 * durable artifact in the harness goes through: JSON run artifacts
 * (src/report) and cached binary traces (src/trace) both use it.
 * Content lands in a temp file next to the destination (same
 * filesystem, so the final rename is atomic), is flushed and fsynced,
 * then renamed over the target. Readers either see the old file or
 * the complete new one - a crash mid-write can never leave a
 * truncated file behind. Each write uses its own temp name
 * (`<path>.tmp.<pid>.<n>`), so concurrent writers of one path, in
 * one process or several, never interfere: the last rename wins.
 */

#ifndef IBP_ROBUST_ATOMIC_FILE_HH
#define IBP_ROBUST_ATOMIC_FILE_HH

#include <string>
#include <string_view>

#include "robust/error.hh"

namespace ibp {

/**
 * Atomically replace @p path with @p contents. Parent directories
 * are created recursively. Errors (unwritable directory, full disk,
 * failed rename) come back as a permanent RunError; the temp file is
 * removed on every failure path.
 */
Result<void> writeFileAtomic(const std::string &path,
                             std::string_view contents);

} // namespace ibp

#endif // IBP_ROBUST_ATOMIC_FILE_HH
