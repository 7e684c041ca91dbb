#include "reference.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace perfbench {

using onesql::FeedEvent;
using onesql::Row;
using onesql::Timestamp;
using onesql::Value;

namespace {

constexpr int64_t kMinute = 60 * 1000;

int64_t FloorTo(int64_t t, int64_t unit) {
  int64_t q = t / unit;
  if (t % unit != 0 && t < 0) --q;
  return q * unit;
}

struct Bid {
  int64_t time;
  int64_t auction;
  int64_t bidder;
  int64_t price;
};

}  // namespace

std::vector<Bag> ReferenceResults(const std::vector<FeedEvent>& feed) {
  std::vector<Bid> bids;
  struct Person {
    std::string name;
    std::string state;
  };
  std::unordered_map<int64_t, Person> persons;
  struct Auction {
    int64_t id;
    int64_t seller;
    int64_t category;
    std::string item;
  };
  std::vector<Auction> auctions;
  for (const FeedEvent& e : feed) {
    if (e.kind != FeedEvent::Kind::kInsert) continue;
    const Row& r = e.row;
    if (e.source == "Bid") {
      bids.push_back({r[0].AsTimestamp().millis(), r[1].AsInt64(),
                      r[2].AsInt64(), r[3].AsInt64()});
    } else if (e.source == "Person") {
      persons[r[1].AsInt64()] = {r[2].AsString(), r[3].AsString()};
    } else if (e.source == "Auction") {
      auctions.push_back(
          {r[1].AsInt64(), r[2].AsInt64(), r[3].AsInt64(), r[4].AsString()});
    }
  }
  std::unordered_map<int64_t, int64_t> category_of;
  for (const Auction& a : auctions) category_of[a.id] = a.category;

  std::vector<Bag> out(6);
  auto time = [](int64_t ms) { return Value::Time(Timestamp(ms)); };

  // Q1: every bid, price converted with integer arithmetic.
  // Q2: bids on auctions whose id is a multiple of 123.
  for (const Bid& b : bids) {
    ++out[0][CanonicalRow({time(b.time), Value::Int64(b.auction),
                           Value::Int64(b.bidder),
                           Value::Int64(b.price * 908 / 1000)})];
    if (b.auction % 123 == 0) {
      ++out[1][CanonicalRow(
          {time(b.time), Value::Int64(b.auction), Value::Int64(b.price)})];
    }
  }

  // Q3: category-3 auctions whose seller lives in OR.
  for (const Auction& a : auctions) {
    if (a.category != 3) continue;
    auto p = persons.find(a.seller);
    if (p == persons.end() || p->second.state != "OR") continue;
    ++out[2][CanonicalRow({Value::String(p->second.name),
                           Value::String(p->second.state),
                           Value::Int64(a.id), Value::String(a.item)})];
  }

  // Q4: AVG(price) per (10-minute tumbling window end, auction category).
  struct SumCount {
    double sum = 0;
    int64_t count = 0;
  };
  std::map<std::pair<int64_t, int64_t>, SumCount> q4;
  for (const Bid& b : bids) {
    auto c = category_of.find(b.auction);
    if (c == category_of.end()) continue;
    const int64_t wend = FloorTo(b.time, 10 * kMinute) + 10 * kMinute;
    SumCount& sc = q4[{wend, c->second}];
    sc.sum += static_cast<double>(b.price);
    ++sc.count;
  }
  for (const auto& [key, sc] : q4) {
    ++out[3][CanonicalRow({time(key.first), Value::Int64(key.second),
                           Value::Double(sc.sum / static_cast<double>(
                                                      sc.count))})];
  }

  // Q5: per hopping window (10 minutes, hop 5), the auctions with the most
  // bids — every auction tied at the maximum.
  std::map<int64_t, std::map<int64_t, int64_t>> q5;  // wend -> auction -> n
  for (const Bid& b : bids) {
    for (int64_t start = FloorTo(b.time, 5 * kMinute);
         start + 10 * kMinute > b.time; start -= 5 * kMinute) {
      ++q5[start + 10 * kMinute][b.auction];
    }
  }
  for (const auto& [wend, counts] : q5) {
    int64_t max = 0;
    for (const auto& [auction, n] : counts) max = std::max(max, n);
    for (const auto& [auction, n] : counts) {
      if (n != max) continue;
      ++out[4][CanonicalRow(
          {time(wend), Value::Int64(auction), Value::Int64(n)})];
    }
  }

  // Q7: per 10-minute tumbling window, every bid at the window's highest
  // price.
  std::map<int64_t, int64_t> q7_max;  // wstart -> max price
  for (const Bid& b : bids) {
    const int64_t start = FloorTo(b.time, 10 * kMinute);
    auto [it, inserted] = q7_max.emplace(start, b.price);
    if (!inserted) it->second = std::max(it->second, b.price);
  }
  for (const Bid& b : bids) {
    const int64_t start = FloorTo(b.time, 10 * kMinute);
    if (b.price != q7_max[start]) continue;
    ++out[5][CanonicalRow({time(start), time(start + 10 * kMinute),
                           time(b.time), Value::Int64(b.price),
                           Value::Int64(b.auction)})];
  }
  return out;
}

}  // namespace perfbench
