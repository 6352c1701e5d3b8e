#include "util/mmap_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "util/error.hh"

#if defined(__unix__) || defined(__APPLE__)
#define IPREF_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define IPREF_HAVE_MMAP 0
#include <sys/stat.h>
#endif

namespace ipref
{

namespace
{

[[noreturn]] void
raiseIo(const char *what, const std::string &path, int err)
{
    throw SimError(SimError::Kind::Io,
                   detail::formatMessage("%s: '%s' (errno %d)", what,
                                         path.c_str(), err),
                   isTransientErrno(err));
}

} // namespace

MappedFile::MappedFile(const std::string &path) : path_(path)
{
#if IPREF_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        raiseIo("cannot open file for mapping", path, errno);
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        raiseIo("cannot stat file for mapping", path, err);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) {
        // mmap(0) is undefined; an empty file is a valid (empty) view.
        ::close(fd);
        data_ = nullptr;
        return;
    }
    void *p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    int maperr = errno;
    ::close(fd); // the mapping holds its own reference
    if (p == MAP_FAILED)
        raiseIo("cannot mmap file", path, maperr);
    data_ = static_cast<const unsigned char *>(p);
    mapped_ = true;
#else
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        raiseIo("cannot open file", path, errno);
    std::fseek(f, 0, SEEK_END);
    long bytes = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    fallback_.resize(bytes > 0 ? static_cast<std::size_t>(bytes) : 0);
    if (!fallback_.empty() &&
        std::fread(fallback_.data(), 1, fallback_.size(), f) !=
            fallback_.size()) {
        int err = errno;
        std::fclose(f);
        raiseIo("short read loading file", path, err);
    }
    std::fclose(f);
    data_ = fallback_.data();
    size_ = fallback_.size();
#endif
}

MappedFile::~MappedFile()
{
#if IPREF_HAVE_MMAP
    if (mapped_ && data_)
        ::munmap(const_cast<unsigned char *>(data_), size_);
#endif
}

void
MappedFile::releaseBefore([[maybe_unused]] std::size_t offset)
{
#if IPREF_HAVE_MMAP
    static const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    // A rewound reader starts over: what its last pass left goes too.
    const bool rewound = offset < released_;
    const std::size_t from = rewound ? 0 : released_;
    const std::size_t end =
        rewound ? size_ : std::min(offset, size_) / page * page;
    if (mapped_ && (rewound || end >= from + (std::size_t{1} << 20))) {
        // Advisory: on failure the pages just stay resident.
        ::madvise(const_cast<unsigned char *>(data_) + from, end - from,
                  MADV_DONTNEED);
        released_ = rewound ? 0 : end;
    }
#endif
}

FileFingerprint
fingerprintFile(const std::string &path)
{
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0)
        raiseIo("cannot stat file", path, errno);
    FileFingerprint fp;
    fp.sizeBytes = static_cast<std::uint64_t>(st.st_size);
#if defined(__APPLE__)
    fp.mtimeNs =
        static_cast<std::uint64_t>(st.st_mtimespec.tv_sec) *
            1'000'000'000ull +
        static_cast<std::uint64_t>(st.st_mtimespec.tv_nsec);
#elif defined(__unix__)
    fp.mtimeNs = static_cast<std::uint64_t>(st.st_mtim.tv_sec) *
                     1'000'000'000ull +
                 static_cast<std::uint64_t>(st.st_mtim.tv_nsec);
#else
    fp.mtimeNs = static_cast<std::uint64_t>(st.st_mtime) *
                 1'000'000'000ull;
#endif
    return fp;
}

} // namespace ipref
