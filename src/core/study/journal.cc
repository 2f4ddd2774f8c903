#include "core/study/journal.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/logging.hh"

namespace ilp::journal {

namespace {

std::uint32_t
crcByte(std::uint32_t crc, unsigned char byte)
{
    crc ^= byte;
    for (int k = 0; k < 8; ++k)
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    return crc;
}

std::string
crcHex(std::uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", crc);
    return buf;
}

/** Wrap a record into the framed {"c":crc,"r":record} line. */
std::string
frame(const Json &record)
{
    const std::string body = record.dump();
    Json line = Json::object();
    line.set("c", Json(crcHex(crc32(body))));
    line.set("r", record);
    std::string out = line.dump();
    out += '\n';
    return out;
}

} // namespace

std::uint32_t
crc32(const std::string &text)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (unsigned char byte : text)
        crc = crcByte(crc, byte);
    return crc ^ 0xFFFFFFFFu;
}

Writer::~Writer()
{
    close();
}

bool
Writer::open(const std::string &path, std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        if (error)
            *error = "cannot open journal '" + path + "' for append";
        return false;
    }
    unsynced_ = 0;
    return true;
}

void
Writer::writeRecord(const Json &record)
{
    const std::string line = frame(record);
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return;
    // One write(2) per complete line: O_APPEND makes each record
    // atomic with respect to other writers and to process death.
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n <= 0) {
            SS_WARN("journal write failed; checkpointing disabled");
            ::close(fd_);
            fd_ = -1;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    if (++unsynced_ >= kSyncInterval) {
        ::fsync(fd_);
        unsynced_ = 0;
    }
}

void
Writer::writeHeader(const Json &identity)
{
    Json r = Json::object();
    r.set("kind", Json("header"));
    r.set("identity", identity);
    writeRecord(r);
}

void
Writer::writeCell(const std::string &key, const Json &value)
{
    Json r = Json::object();
    r.set("kind", Json("cell"));
    r.set("key", Json(key));
    r.set("value", value);
    writeRecord(r);
}

void
Writer::sync()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0 && unsynced_ > 0) {
        ::fsync(fd_);
        unsynced_ = 0;
    }
}

void
Writer::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        if (unsynced_ > 0)
            ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

LoadResult
load(const std::string &path)
{
    LoadResult out;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        out.error = "cannot read journal '" + path + "'";
        return out;
    }
    out.ok = true;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Json doc;
        if (!Json::tryParse(line, doc, nullptr)) {
            ++out.corrupt; // torn tail or bit rot: drop, keep going
            continue;
        }
        const Json *crc = doc.find("c");
        const Json *rec = doc.find("r");
        if (!crc || !crc->isString() || !rec ||
            crcHex(crc32(rec->dump())) != crc->asString()) {
            ++out.corrupt;
            continue;
        }
        const Json *kind = rec->find("kind");
        if (!kind || !kind->isString()) {
            ++out.corrupt;
            continue;
        }
        if (kind->asString() == "header") {
            if (const Json *id = rec->find("identity");
                id && out.identity.isNull())
                out.identity = *id;
        } else if (kind->asString() == "cell") {
            const Json *key = rec->find("key");
            const Json *value = rec->find("value");
            if (key && key->isString() && value)
                out.cells[key->asString()] = *value;
            else
                ++out.corrupt;
        }
        // Unknown kinds pass through silently: forward compatibility
        // with future record types.
    }
    return out;
}

} // namespace ilp::journal
