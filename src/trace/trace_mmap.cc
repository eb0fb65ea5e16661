#include "trace/trace_mmap.hh"

#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>

#include "robust/atomic_file.hh"
#include "util/bits.hh"

#if defined(__unix__) || defined(__APPLE__)
#define IBP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define IBP_HAVE_MMAP 0
#endif

namespace ibp {

namespace {

constexpr char kMagicV3[8] = {'I', 'B', 'P', 'M', 'A', 'P', '3', '\0'};
constexpr std::uint32_t kEndianTag = 0x01020304u;

// v3 (columnar) layout constants.
constexpr std::uint32_t kVersionV3 = 3;
constexpr std::size_t kHeaderBytesV3 = 128;
constexpr std::size_t kChecksumOffsetV3 = 80;
constexpr std::size_t kColumnAlign = 64;

// The v3 columns assume 4-byte addresses. Pin that down so a
// compiler/ABI change fails the build, not the reader.
static_assert(sizeof(Addr) == 4);

constexpr std::size_t
alignUp(std::size_t value, std::size_t align)
{
    return (value + align - 1) & ~(align - 1);
}

[[maybe_unused]] void
putU32(std::string &blob, std::size_t offset, std::uint32_t value)
{
    std::memcpy(blob.data() + offset, &value, sizeof(value));
}

[[maybe_unused]] void
putU64(std::string &blob, std::size_t offset, std::uint64_t value)
{
    std::memcpy(blob.data() + offset, &value, sizeof(value));
}

[[maybe_unused]] std::uint32_t
getU32(const char *base, std::size_t offset)
{
    std::uint32_t value = 0;
    std::memcpy(&value, base + offset, sizeof(value));
    return value;
}

[[maybe_unused]] std::uint64_t
getU64(const char *base, std::size_t offset)
{
    std::uint64_t value = 0;
    std::memcpy(&value, base + offset, sizeof(value));
    return value;
}

/** FNV-1a over the ten little-endian header words before the
 * checksum field. */
[[maybe_unused]] std::uint64_t
headerChecksum(const char *base)
{
    std::uint64_t buffer[10];
    std::memcpy(buffer, base, sizeof(buffer));
    return fnv1a64(buffer, 10, 0xcbf29ce484222325ULL);
}

[[maybe_unused]] RunError
badFile(const std::string &path, const std::string &what)
{
    return RunError::permanent("mmap trace '" + path + "': " + what);
}

std::string
encodeV3(const Trace &trace)
{
    const std::size_t name_bytes = trace.name().size();
    const std::size_t count = trace.size();
    const std::size_t pc_offset =
        alignUp(kHeaderBytesV3 + name_bytes, kColumnAlign);
    const std::size_t target_offset =
        alignUp(pc_offset + count * sizeof(Addr), kColumnAlign);
    const std::size_t meta_offset =
        alignUp(target_offset + count * sizeof(Addr), kColumnAlign);
    const std::size_t file_size = meta_offset + count;

    // Zero-filled so all padding gaps are deterministic.
    std::string blob(file_size, '\0');
    std::memcpy(blob.data(), kMagicV3, sizeof(kMagicV3));
    putU32(blob, 8, kVersionV3);
    putU32(blob, 12, kEndianTag);
    putU32(blob, 16, sizeof(Addr));
    putU32(blob, 20, kHeaderBytesV3);
    putU64(blob, 24, trace.seed());
    putU64(blob, 32, count);
    putU32(blob, 40, static_cast<std::uint32_t>(name_bytes));
    putU32(blob, 44, trace.siteCountHint());
    putU64(blob, 48, pc_offset);
    putU64(blob, 56, target_offset);
    putU64(blob, 64, meta_offset);
    putU64(blob, 72, file_size);
    putU64(blob, kChecksumOffsetV3, headerChecksum(blob.data()));
    std::memcpy(blob.data() + kHeaderBytesV3, trace.name().data(),
                name_bytes);

    char *pc_out = blob.data() + pc_offset;
    char *target_out = blob.data() + target_offset;
    char *meta_out = blob.data() + meta_offset;
    if (trace.isColumnar()) {
        // Re-storing an already columnar trace: bulk column copies,
        // no AoS shadow needed.
        const TraceColumns columns = trace.columns();
        std::memcpy(pc_out, columns.pc, count * sizeof(Addr));
        std::memcpy(target_out, columns.target, count * sizeof(Addr));
        std::memcpy(meta_out, columns.meta, count);
    } else {
        const BranchRecord *records = trace.data();
        for (std::size_t i = 0; i < count; ++i) {
            const BranchRecord &record = records[i];
            std::memcpy(pc_out + i * sizeof(Addr), &record.pc,
                        sizeof(Addr));
            std::memcpy(target_out + i * sizeof(Addr), &record.target,
                        sizeof(Addr));
            meta_out[i] = static_cast<char>(
                packBranchMeta(record.kind, record.taken));
        }
    }
    return blob;
}

#if IBP_HAVE_MMAP

/** Owns one read-only file mapping; unmapped with the last Trace
 * copy that references it. */
struct Mapping
{
    void *base = nullptr;
    std::size_t length = 0;

    Mapping(void *base, std::size_t length)
        : base(base), length(length)
    {
    }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    ~Mapping()
    {
        if (base != nullptr)
            ::munmap(base, length);
    }
};

Result<Trace>
loadV3(const std::string &path, std::shared_ptr<Mapping> mapping,
       const char *bytes, std::size_t file_size)
{
    if (file_size < kHeaderBytesV3)
        return badFile(path, "truncated header");
    if (getU32(bytes, 8) != kVersionV3)
        return badFile(path, "version skew");
    if (getU32(bytes, 12) != kEndianTag)
        return badFile(path, "foreign endianness");
    if (getU32(bytes, 16) != sizeof(Addr))
        return badFile(path, "address size mismatch");
    if (getU32(bytes, 20) != kHeaderBytesV3)
        return badFile(path, "header size mismatch");
    if (getU64(bytes, kChecksumOffsetV3) != headerChecksum(bytes))
        return badFile(path, "header checksum mismatch");

    const std::uint64_t seed = getU64(bytes, 24);
    const std::uint64_t count = getU64(bytes, 32);
    const std::uint32_t name_bytes = getU32(bytes, 40);
    const std::uint32_t site_hint = getU32(bytes, 44);
    const std::uint64_t pc_offset = getU64(bytes, 48);
    const std::uint64_t target_offset = getU64(bytes, 56);
    const std::uint64_t meta_offset = getU64(bytes, 64);
    const std::uint64_t stored_size = getU64(bytes, 72);

    // The real file size bounds the count, which keeps the offset
    // recomputation below free of overflow.
    if (count > file_size)
        return badFile(path, "truncated column arrays");
    const std::size_t records = static_cast<std::size_t>(count);
    if (pc_offset !=
        alignUp(kHeaderBytesV3 + name_bytes, kColumnAlign)) {
        return badFile(path, "bad pc column offset");
    }
    if (target_offset !=
        alignUp(pc_offset + records * sizeof(Addr), kColumnAlign))
        return badFile(path, "bad target column offset");
    if (meta_offset !=
        alignUp(target_offset + records * sizeof(Addr), kColumnAlign))
        return badFile(path, "bad meta column offset");
    // Strict equality: a tail-truncated or tail-padded file is
    // rejected rather than partially served.
    if (stored_size != meta_offset + records ||
        stored_size != file_size) {
        return badFile(path, "file size mismatch");
    }

    std::string name(bytes + kHeaderBytesV3, name_bytes);
    const auto *pc =
        reinterpret_cast<const Addr *>(bytes + pc_offset);
    const auto *target =
        reinterpret_cast<const Addr *>(bytes + target_offset);
    const auto *meta =
        reinterpret_cast<const std::uint8_t *>(bytes + meta_offset);
    Trace trace = Trace::fromColumnarView(std::move(name), seed,
                                          std::move(mapping), pc,
                                          target, meta, records);
    trace.setSiteCountHint(site_hint);
    trace.setReadPath(TraceReadPath::Mmap);
    return trace;
}

#endif // IBP_HAVE_MMAP

} // namespace

bool
traceMmapSupported()
{
    return IBP_HAVE_MMAP != 0 &&
           std::endian::native == std::endian::little;
}

Result<std::string>
encodeTraceMmap(const Trace &trace)
{
    if (!traceMmapSupported()) {
        return RunError::permanent(
            "mmap trace format unsupported on this platform");
    }
    return encodeV3(trace);
}

Result<void>
saveTraceMmap(const Trace &trace, const std::string &path)
{
    auto blob = encodeTraceMmap(trace);
    if (!blob.ok())
        return blob.error();
    return writeFileAtomic(path, blob.value());
}

#if IBP_HAVE_MMAP

Result<Trace>
loadTraceMmap(const std::string &path)
{
    if (!traceMmapSupported())
        return badFile(path, "format unsupported on this platform");

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return badFile(path, "cannot open");

    struct stat info = {};
    if (::fstat(fd, &info) != 0 || info.st_size < 0) {
        ::close(fd);
        return badFile(path, "cannot stat");
    }
    const std::size_t file_size = static_cast<std::size_t>(info.st_size);
    if (file_size < sizeof(kMagicV3)) {
        ::close(fd);
        return badFile(path, "truncated header");
    }

    void *base =
        ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return badFile(path, "mmap failed");
    auto mapping = std::make_shared<Mapping>(base, file_size);

    // Any other magic - including the retired v2 record-array
    // layout - is a miss: the cache regenerates the trace and
    // rewrites the entry as v3.
    const char *bytes = static_cast<const char *>(base);
    if (std::memcmp(bytes, kMagicV3, sizeof(kMagicV3)) != 0)
        return badFile(path, "bad magic");
    return loadV3(path, std::move(mapping), bytes, file_size);
}

#else // !IBP_HAVE_MMAP

Result<Trace>
loadTraceMmap(const std::string &path)
{
    return badFile(path, "format unsupported on this platform");
}

#endif // IBP_HAVE_MMAP

} // namespace ibp
