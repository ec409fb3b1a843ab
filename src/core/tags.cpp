#include "core/tags.h"

#include <cassert>

namespace faros::core {

const char* tag_type_name(TagType t) {
  switch (t) {
    case TagType::kNetflow: return "NetFlow";
    case TagType::kProcess: return "Process";
    case TagType::kFile: return "File";
    case TagType::kExportTable: return "ExportTable";
  }
  return "?";
}

std::optional<ProvTag> ProvTag::unpack(const u8 in[3]) {
  if (in[0] < 1 || in[0] > 4) return std::nullopt;
  return ProvTag(static_cast<TagType>(in[0]),
                 static_cast<u16>(in[1] | (in[2] << 8)));
}

size_t NetflowMap::FlowHash::operator()(const FlowTuple& f) const {
  u64 k = hash_combine(f.src_ip, f.dst_ip);
  k = hash_combine(k, (static_cast<u64>(f.src_port) << 16) | f.dst_port);
  return static_cast<size_t>(k);
}

u16 NetflowMap::intern(const FlowTuple& flow) {
  auto it = lookup_.find(flow);
  if (it != lookup_.end()) return it->second;
  assert(flows_.size() < 0x10000);
  u16 index = static_cast<u16>(flows_.size());
  flows_.push_back(flow);
  lookup_.emplace(flow, index);
  return index;
}

const FlowTuple& NetflowMap::get(u16 index) const {
  assert(index < flows_.size());
  return flows_[index];
}

u16 ProcessMap::add(PAddr cr3, u32 pid, const std::string& name) {
  assert(entries_.size() < 0x10000);
  entries_.push_back(Entry{cr3, pid, name});
  return static_cast<u16>(entries_.size() - 1);
}

const ProcessMap::Entry& ProcessMap::get(u16 index) const {
  assert(index < entries_.size());
  return entries_[index];
}

u16 FileMap::intern(u32 file_id, u32 version, const std::string& name) {
  u64 key = (static_cast<u64>(file_id) << 32) | version;
  auto it = lookup_.find(key);
  if (it != lookup_.end()) return it->second;
  assert(entries_.size() < 0x10000);
  u16 index = static_cast<u16>(entries_.size());
  entries_.push_back(Entry{file_id, version, name});
  lookup_[key] = index;
  return index;
}

const FileMap::Entry& FileMap::get(u16 index) const {
  assert(index < entries_.size());
  return entries_[index];
}

std::string TagMaps::describe(ProvTag tag) const {
  switch (tag.type()) {
    case TagType::kNetflow:
      return std::string(tag_type_name(tag.type())) + ": " +
             netflow.get(tag.index()).to_string();
    case TagType::kProcess:
      return std::string(tag_type_name(tag.type())) + ": " +
             process.get(tag.index()).name;
    case TagType::kFile: {
      const auto& e = file.get(tag.index());
      return std::string(tag_type_name(tag.type())) + ": " + e.name + " (v" +
             std::to_string(e.version) + ")";
    }
    case TagType::kExportTable: return tag_type_name(tag.type());
  }
  return "?";
}

}  // namespace faros::core
