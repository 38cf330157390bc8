#include "workloads.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "rdf/dataset.h"
#include "workload/lubm.h"
#include "workload/yago.h"

namespace perfbench {
namespace {

using gstored::Rng;

// ---- LUBM vocabulary (matches src/workload/lubm.cc).
const std::string kLubm = "<http://lubm.org/ont#";
std::string LubmTerm(const std::string& local) { return kLubm + local + ">"; }
std::string Univ(int u) {
  return "<http://www.univ" + std::to_string(u) + ".edu/univ>";
}
std::string DeptEntity(int u, int d, const std::string& local) {
  return "<http://www.univ" + std::to_string(u) + ".edu/dept" +
         std::to_string(d) + "#" + local + ">";
}

// ---- YAGO vocabulary (matches src/workload/yago.cc).
std::string YagoTerm(const std::string& local) {
  return "<http://yago.org/ont#" + local + ">";
}
std::string YagoEntity(const std::string& local) {
  return "<http://yago-knowledge.org/resource/" + local + ">";
}

/// Faculty labels of one LUBM department under the default LubmConfig
/// (3 full professors, 4 associate professors, 3 lecturers).
std::vector<std::string> FacultyLabels() {
  std::vector<std::string> labels;
  for (int i = 0; i < 3; ++i) labels.push_back("FullProfessor" + std::to_string(i));
  for (int i = 0; i < 4; ++i) labels.push_back("AssociateProfessor" + std::to_string(i));
  for (int i = 0; i < 3; ++i) labels.push_back("Lecturer" + std::to_string(i));
  return labels;
}

std::string Lq1() {
  return "SELECT ?x ?y ?z WHERE { ?x " + LubmTerm("type") + " " +
         LubmTerm("GraduateStudent") + " . ?x " +
         LubmTerm("undergraduateDegreeFrom") + " ?y . ?x " +
         LubmTerm("memberOf") + " ?z . ?z " + LubmTerm("subOrganizationOf") +
         " ?y . }";
}
std::string Lq3(const std::string& prof) {
  return "SELECT ?s ?c WHERE { ?s " + LubmTerm("advisor") + " " + prof +
         " . ?s " + LubmTerm("takesCourse") + " ?c . " + prof + " " +
         LubmTerm("teacherOf") + " ?c . }";
}
std::string Lq4(const std::string& dept, const std::string& klass) {
  return "SELECT ?x ?n ?e WHERE { ?x " + LubmTerm("worksFor") + " " + dept +
         " . ?x " + LubmTerm("type") + " " + LubmTerm(klass) + " . ?x " +
         LubmTerm("name") + " ?n . ?x " + LubmTerm("emailAddress") +
         " ?e . }";
}
std::string Lq5(const std::string& dept, const std::string& klass) {
  return "SELECT ?x WHERE { ?x " + LubmTerm("memberOf") + " " + dept +
         " . ?x " + LubmTerm("type") + " " + LubmTerm(klass) + " . }";
}
std::string Lq6(int univ) {
  return "SELECT ?x ?p ?c WHERE { ?x " + LubmTerm("advisor") + " ?p . ?p " +
         LubmTerm("doctoralDegreeFrom") + " " + Univ(univ) + " . ?x " +
         LubmTerm("takesCourse") + " ?c . }";
}
std::string Lq7() {
  return "SELECT ?s ?c ?p ?d WHERE { ?s " + LubmTerm("takesCourse") +
         " ?c . ?p " + LubmTerm("teacherOf") + " ?c . ?s " +
         LubmTerm("advisor") + " ?p . ?p " + LubmTerm("worksFor") +
         " ?d . }";
}

std::string Yq1(int city) {
  return "SELECT ?x ?y ?m WHERE { ?x " + YagoTerm("wasBornIn") + " " +
         YagoEntity("city" + std::to_string(city)) + " . ?x " +
         YagoTerm("influences") + " ?y . ?y " + YagoTerm("actedIn") +
         " ?m . }";
}
std::string Yq2() {
  return "SELECT ?x ?m ?c WHERE { ?x " + YagoTerm("actedIn") + " ?m . ?m " +
         YagoTerm("isLocatedIn") + " ?c . ?c " + YagoTerm("type") + " " +
         YagoTerm("Country") + " . }";
}
std::string Yq3() {
  return "SELECT ?x ?y ?z WHERE { ?x " + YagoTerm("influences") +
         " ?y . ?y " + YagoTerm("influences") + " ?z . ?z " +
         YagoTerm("actedIn") + " ?m . }";
}
std::string Yq4(int country) {
  return "SELECT ?x ?c ?o WHERE { ?x " + YagoTerm("livesIn") + " ?c . ?c " +
         YagoTerm("isLocatedIn") + " " +
         YagoEntity("country" + std::to_string(country)) + " . ?x " +
         YagoTerm("worksAt") + " ?o . }";
}

/// Appends a class whose instances are `texts`, drawn by `pick`.
void AddClass(WorkloadSpec* spec, std::string name,
              const std::vector<std::string>& texts,
              std::function<size_t(Rng&)> pick) {
  QueryClass cls;
  cls.name = std::move(name);
  const int id = static_cast<int>(spec->classes.size());
  for (const std::string& text : texts) {
    cls.members.push_back(spec->instances.size());
    spec->instances.push_back(text);
    spec->instance_class.push_back(id);
  }
  cls.pick = std::move(pick);
  spec->classes.push_back(std::move(cls));
}

std::function<size_t(Rng&)> Uniform(size_t n) {
  return [n](Rng& rng) { return static_cast<size_t>(rng.Uniform(n)); };
}

/// Zipf(s = 1) over `n` ranks; rank r maps to item perm[r].
class Zipf {
 public:
  Zipf(size_t n, Rng& shuffle_rng) : perm_(n), cdf_(n) {
    std::iota(perm_.begin(), perm_.end(), size_t{0});
    for (size_t i = n; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[shuffle_rng.Uniform(i)]);
    }
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(Rng& rng) const {
    const double u = rng.NextDouble();
    size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(r, perm_.size() - 1)];
  }

 private:
  std::vector<size_t> perm_;
  std::vector<double> cdf_;
};

/// The block's class list: `counts[i]` slots of class i.
std::vector<int> Block(const std::vector<int>& counts) {
  std::vector<int> block;
  for (size_t c = 0; c < counts.size(); ++c) {
    block.insert(block.end(), counts[c], static_cast<int>(c));
  }
  return block;
}

constexpr int kLubmScale = 3;  // LubmScale(3): 24 universities, 96 depts
constexpr int kUniversities = 8 * kLubmScale;
constexpr int kDeptsPerUniv = 4;

std::unique_ptr<Generated> MakeLubm(const std::string& name) {
  auto gen = std::make_unique<Generated>();
  const gstored::LubmConfig config = gstored::LubmScale(kLubmScale);
  gstored::Workload w = gstored::MakeLubmWorkload(config);
  gen->ntriples = gstored::WriteNTriples(*w.dataset);
  gen->triples = w.dataset->graph().num_triples();

  WorkloadSpec& spec = gen->spec;
  spec.name = name;
  spec.data_seed = config.seed;
  const std::vector<std::string> faculty = FacultyLabels();
  const size_t depts = kUniversities * kDeptsPerUniv;
  auto dept_iri = [](size_t d) {
    return DeptEntity(static_cast<int>(d / kDeptsPerUniv),
                      static_cast<int>(d % kDeptsPerUniv), "dept");
  };
  auto lq3_texts = [&] {
    std::vector<std::string> texts;
    for (size_t d = 0; d < depts; ++d) {
      for (const std::string& f : faculty) {
        texts.push_back(Lq3(DeptEntity(static_cast<int>(d / kDeptsPerUniv),
                                       static_cast<int>(d % kDeptsPerUniv),
                                       f)));
      }
    }
    return texts;
  };

  if (name == "lubm-prune") {
    spec.front = Front::kRun;
    spec.engine_slots = 2;
    spec.inflight = 1;
    spec.clients = 1;
    spec.window_s = 10.0;  // ~10 requests/s
    std::vector<std::string> lq6;
    for (int u = 0; u < kUniversities; ++u) lq6.push_back(Lq6(u));
    AddClass(&spec, "LQ3", lq3_texts(), Uniform(depts * faculty.size()));
    AddClass(&spec, "LQ6", lq6, Uniform(lq6.size()));
    AddClass(&spec, "LQ1", {Lq1()}, Uniform(1));
    AddClass(&spec, "LQ7", {Lq7()}, Uniform(1));
    // p50 inside LQ1 and p90 inside LQ7, both join-dominated: a percentile
    // inside a ~25 ms class (LQ6) swung by 30% with host interference.
    spec.block = Block({2, 2, 4, 2});
    spec.rss_requests = 200;
    return gen;
  }

  // lubm-serve: selective templates over Zipf(1)-popular departments, sent
  // by one client with one query in flight on one slot and one CPU. With two
  // clients and two slots a query's slot count depended on whether the
  // other client's query was in flight, and most requests waited on
  // wake-ups across CPUs; qps spread 24-39% between runs.
  spec.front = Front::kServe;
  spec.engine_slots = 1;
  spec.inflight = 1;
  spec.clients = 1;
  spec.one_cpu = true;
  spec.window_s = 2.0;  // thousands of requests/s
  Rng rank_rng(config.seed ^ 0x5eedc0ffee15ULL);
  auto zipf = std::make_shared<Zipf>(depts, rank_rng);
  const std::vector<std::string> faculty_types = {
      "FullProfessor", "AssociateProfessor", "Lecturer"};
  const std::vector<std::string> student_types = {"UndergraduateStudent",
                                                  "GraduateStudent"};
  std::vector<std::string> lq4, lq5;
  for (size_t d = 0; d < depts; ++d) {
    for (const std::string& t : faculty_types) lq4.push_back(Lq4(dept_iri(d), t));
    for (const std::string& t : student_types) lq5.push_back(Lq5(dept_iri(d), t));
  }
  auto by_dept = [zipf](size_t variants) {
    return [zipf, variants](Rng& rng) {
      const size_t dept = (*zipf)(rng);
      return dept * variants + static_cast<size_t>(rng.Uniform(variants));
    };
  };
  AddClass(&spec, "LQ3", lq3_texts(), by_dept(faculty.size()));
  AddClass(&spec, "LQ4", lq4, by_dept(faculty_types.size()));
  AddClass(&spec, "LQ5", lq5, by_dept(student_types.size()));
  spec.block = Block({12, 4, 4});
  spec.rss_requests = 50000;
  return gen;
}

std::unique_ptr<Generated> MakeYago(const std::string& name) {
  auto gen = std::make_unique<Generated>();
  gstored::YagoConfig config;  // 3x the default entity counts
  config.countries *= 3;
  config.cities *= 3;
  config.persons *= 3;
  config.movies *= 3;
  config.organizations *= 3;
  config.prizes *= 3;
  gstored::Workload w = gstored::MakeYagoWorkload(config);
  gen->ntriples = gstored::WriteNTriples(*w.dataset);
  gen->triples = w.dataset->graph().num_triples();

  WorkloadSpec& spec = gen->spec;
  spec.name = name;
  spec.data_seed = config.seed;
  spec.front = Front::kRun;
  spec.engine_slots = 2;
  spec.inflight = 1;
  spec.clients = 1;
  spec.window_s = 10.0;  // ~10 requests/s
  std::vector<std::string> yq1, yq4;
  for (int c = 0; c < config.cities; ++c) yq1.push_back(Yq1(c));
  for (int c = 0; c < config.countries; ++c) yq4.push_back(Yq4(c));
  AddClass(&spec, "YQ2", {Yq2()}, Uniform(1));
  AddClass(&spec, "YQ1", yq1, Uniform(yq1.size()));
  AddClass(&spec, "YQ4", yq4, Uniform(yq4.size()));
  AddClass(&spec, "YQ3", {Yq3()}, Uniform(1));
  // p50 and p90 both inside YQ3, the assembly-heavy class: a percentile
  // inside the 3-6 ms selective classes swung by 45% with host
  // interference.
  spec.block = Block({2, 3, 3, 12});
  spec.rss_requests = 150;
  return gen;
}

}  // namespace

std::unique_ptr<Generated> MakeWorkload(const std::string& name) {
  if (name == "lubm-prune" || name == "lubm-serve") return MakeLubm(name);
  if (name == "yago-assembly") return MakeYago(name);
  return nullptr;
}

InstanceStream::InstanceStream(const WorkloadSpec& spec, uint64_t seed)
    : spec_(&spec), rng_(seed), block_(spec.block), pos_(spec.block.size()) {}

size_t InstanceStream::Next() {
  if (pos_ == block_.size()) {
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  const QueryClass& cls = spec_->classes[block_[pos_++]];
  return cls.members[cls.pick(rng_)];
}

}  // namespace perfbench
