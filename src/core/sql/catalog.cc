#include "core/sql/catalog.h"

#include <cctype>
#include <utility>

#include "core/api/context.h"
#include "storage/hot_buffer.h"

namespace rheem {
namespace sql {

namespace {

std::string UpperName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string LowerName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

Status InMemoryCatalog::Register(const std::string& name, Dataset data) {
  if (!data.has_schema()) {
    return Status::InvalidArgument("table '" + name +
                                   "' has no schema; SQL needs named, typed "
                                   "columns");
  }
  auto table = std::make_shared<const Dataset>(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  tables_.insert_or_assign(UpperName(name), std::move(table));
  return Status::OK();
}

Status InMemoryCatalog::Register(const std::string& name, Dataset data,
                                 Schema schema) {
  data.set_schema(std::move(schema));
  return Register(name, std::move(data));
}

Result<TableHandle> InMemoryCatalog::Load(RheemJob* job,
                                          const std::string& name) {
  std::shared_ptr<const Dataset> data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(UpperName(name));
    if (it == tables_.end()) {
      return Status::NotFound("unknown table '" + name + "'");
    }
    data = it->second;
  }
  Schema schema = data->schema();
  return TableHandle{job->LoadCollection(std::move(data)), std::move(schema)};
}

Result<TableHandle> StorageCatalog::Load(RheemJob* job,
                                         const std::string& name) {
  storage::HotDataBuffer* buffer = job->context()->hot_buffer();
  if (buffer == nullptr) {
    return Status::InvalidArgument(
        "no storage attached to this context — call "
        "RheemContext::AttachStorage first");
  }
  // Identifiers are case-insensitive in the dialect but storage keys are
  // exact strings: try the query's spelling, then the lower-cased
  // conventional form.
  auto data = buffer->Load(name);
  if (!data.ok()) data = buffer->Load(LowerName(name));
  if (!data.ok()) {
    return Status::NotFound("unknown table '" + name +
                            "': " + data.status().message());
  }
  std::shared_ptr<const Dataset> table = std::move(data).ValueOrDie();
  if (!table->has_schema()) {
    return Status::InvalidArgument(
        "dataset '" + name +
        "' was stored without a schema; SQL needs named, typed columns");
  }
  Schema schema = table->schema();
  return TableHandle{job->LoadCollection(std::move(table)), std::move(schema)};
}

}  // namespace sql
}  // namespace rheem
