#include "data/dataset.hpp"

#include <algorithm>
#include <stdexcept>

namespace groupfel::data {

DataSet::DataSet(nn::Tensor features, std::vector<std::int32_t> labels,
                 std::size_t num_classes)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      classes_(num_classes) {
  if (features_.rank() < 2)
    throw std::invalid_argument("DataSet: features must be [N, ...]");
  if (features_.dim(0) != labels_.size())
    throw std::invalid_argument("DataSet: feature/label count mismatch");
  for (auto l : labels_)
    if (l < 0 || static_cast<std::size_t>(l) >= classes_)
      throw std::invalid_argument("DataSet: label out of range");
}

std::size_t DataSet::sample_size() const noexcept {
  return labels_.empty() ? 0 : features_.size() / labels_.size();
}

std::vector<std::size_t> DataSet::sample_shape() const {
  return {features_.shape().begin() + 1, features_.shape().end()};
}

void prepare_batch(std::span<const std::size_t> sample_shape, std::size_t n,
                   DataSet::Batch& out) {
  const auto& oshape = out.features.shape();
  const bool tail_matches =
      oshape.size() == sample_shape.size() + 1 &&
      std::equal(oshape.begin() + 1, oshape.end(), sample_shape.begin());
  if (tail_matches) {
    // Common case — out already holds a batch of this sample shape; only the
    // leading dimension moves, so no reshape bookkeeping.
    out.features.resize_leading(n);
  } else {
    std::vector<std::size_t> shape;
    shape.reserve(sample_shape.size() + 1);
    shape.push_back(n);
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    out.features.resize(shape);
  }
  out.labels.resize(n);
}

namespace {

/// prepare_batch keyed off a resident feature tensor's [N, ...] shape.
void prepare_batch_like(const nn::Tensor& features_like, std::size_t n,
                        DataSet::Batch& out) {
  const auto& fshape = features_like.shape();
  prepare_batch({fshape.data() + 1, fshape.size() - 1}, n, out);
}

}  // namespace

DataSet::Batch DataSet::gather(std::span<const std::size_t> indices) const {
  Batch batch;
  gather_into(indices, batch);
  return batch;
}

void DataSet::gather_into(std::span<const std::size_t> indices,
                          Batch& out) const {
  const std::size_t stride = sample_size();
  prepare_batch_like(features_, indices.size(), out);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= size())
      throw std::out_of_range("DataSet::gather_into: bad index");
    std::copy_n(features_.raw() + src * stride, stride,
                out.features.raw() + i * stride);
    out.labels[i] = labels_[src];
  }
}

ClientShard::ClientShard(std::shared_ptr<const DataSet> dataset,
                         std::vector<std::size_t> indices)
    : dataset_(std::move(dataset)), indices_(std::move(indices)) {
  if (!dataset_) throw std::invalid_argument("ClientShard: null dataset");
  for (auto i : indices_)
    if (i >= dataset_->size())
      throw std::invalid_argument("ClientShard: index out of range");
}

std::vector<std::size_t> ClientShard::label_counts() const {
  std::vector<std::size_t> counts(dataset_->num_classes(), 0);
  for (auto i : indices_)
    ++counts[static_cast<std::size_t>(dataset_->label(i))];
  return counts;
}

void ClientShard::batch_into(std::span<const std::size_t> local_positions,
                             DataSet::Batch& out) const {
  const DataSet& ds = *dataset_;
  const std::size_t stride = ds.sample_size();
  prepare_batch_like(ds.features(), local_positions.size(), out);
  const auto labels = ds.labels();
  for (std::size_t i = 0; i < local_positions.size(); ++i) {
    const std::size_t src = indices_.at(local_positions[i]);
    std::copy_n(ds.features().raw() + src * stride, stride,
                out.features.raw() + i * stride);
    out.labels[i] = labels[src];
  }
}

}  // namespace groupfel::data
