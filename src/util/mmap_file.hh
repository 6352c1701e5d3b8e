/**
 * @file
 * Read-only whole-file mapping. On POSIX hosts the file is mmap()ed
 * (zero-copy: pages fault in on demand and are shared between
 * processes mapping the same trace); elsewhere the file is read into
 * an owned buffer so callers see the same interface either way.
 */

#ifndef IPREF_UTIL_MMAP_FILE_HH
#define IPREF_UTIL_MMAP_FILE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace ipref
{

/** An immutable byte view of one file, mapped or loaded. */
class MappedFile
{
  public:
    /**
     * Map @p path read-only; throws SimError(Io) (transient-flagged
     * when the errno is) if the file cannot be opened or mapped.
     */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }
    const std::string &path() const { return path_; }

    /**
     * Drop the mapped pages below byte @p offset from the resident set
     * (MADV_DONTNEED; a later read faults them back in from the file)
     * once 1 MiB has passed since the last drop; an offset below that
     * drop (a rewound reader) drops them all. No-op for a buffer.
     */
    void releaseBefore(std::size_t offset);

  private:
    std::string path_;
    const unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
    std::size_t released_ = 0; //!< pages below this were dropped
    std::vector<unsigned char> fallback_; //!< non-mmap hosts
};

/**
 * Fingerprint of a file's identity on disk (size and mtime), used by
 * the trace cache to detect that a cached decode has gone stale.
 * Throws SimError(Io) when the file cannot be stat()ed.
 */
struct FileFingerprint
{
    std::uint64_t sizeBytes = 0;
    std::uint64_t mtimeNs = 0;

    bool
    operator==(const FileFingerprint &o) const
    {
        return sizeBytes == o.sizeBytes && mtimeNs == o.mtimeNs;
    }
};

FileFingerprint fingerprintFile(const std::string &path);

} // namespace ipref

#endif // IPREF_UTIL_MMAP_FILE_HH
