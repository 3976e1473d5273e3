// thorcli — command-line front end for the THOR library.
//
//   thorcli probe   --sites N --out DIR     probe simulated sites, cache
//                                           their answer pages as .html
//   thorcli extract DIR [--json]            run two-phase extraction over
//                                           a directory of cached pages
//   thorcli eval    --sites N               probe + extract + score against
//                                           the simulator's ground truth
//
// `extract` works on any directory of HTML files that came from one search
// form (they must share templates, as THOR assumes); the files cached by
// `probe` are just the built-in way to get such a directory.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/object_fields.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/http_transport.h"
#include "src/deepweb/resilient_prober.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/transport.h"
#include "src/html/tag_table.h"
#include <sys/socket.h>
#include <unistd.h>

#include <iostream>

#include "src/net/http_client.h"
#include "src/net/sim_site_server.h"
#include "src/net/socket.h"

#include "src/search/deep_web_search.h"
#include "src/serve/extraction_service.h"
#include "src/serve/relearn_manager.h"
#include "src/serve/template_codec.h"
#include "src/serve/template_store.h"
#include "src/util/json.h"
#include "src/util/json_reader.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"
#include "tools/flags.h"

namespace thor {
namespace {

namespace fs = std::filesystem;
using tools::FlagValue;
using tools::IsFlag;
using tools::ParseArgs;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  thorcli probe --sites N --out DIR [--queries N] [--http]\n"
               "               [--drift-seed S --epoch N [--drift-rate R] "
               "[--drift-ab R]]\n"
               "  thorcli extract DIR [--json]\n"
               "  thorcli analyze DIR [--templates FILE.tpl]\n"
               "  thorcli apply FILE.html... [--templates FILE.tpl] [--json]\n"
               "  thorcli dump FILE.tpl\n"
               "  thorcli learn DIR... --store STOREDIR [--site NAME]\n"
               "  thorcli extract-from-store FILE.html... --store STOREDIR"
               " --site NAME [--json]\n"
               "  thorcli search DIR... --query WORDS [--by-site]\n"
               "  thorcli send --port PORT [--host HOST] [--timeout-ms MS]\n"
               "  thorcli fetch --port PORT --path PATH [--host HOST]\n"
               "               [--timeout-ms MS]\n"
               "  thorcli eval [--sites N] [--fault-rate R] "
               "[--retry-budget N] [--seed S]\n"
               "               [--deadline-ms MS] [--trace FILE] "
               "[--metrics]\n"
               "\n"
               "eval chaos mode: --fault-rate injects transport faults "
               "(timeouts, resets,\n5xx, 429, truncation, garbling) at "
               "overall rate R in [0,1]; --retry-budget\nN >= 1 caps "
               "fetch attempts per probe word (default 4); --seed makes the\n"
               "chaos run reproducible.\n"
               "\n"
               "eval observability: --trace writes a Chrome trace-event "
               "JSON (open in\nabout:tracing or ui.perfetto.dev) with one "
               "span per pipeline stage per site;\n--metrics replays the "
               "corpus through the background-relearn serving stack\n"
               "(per-site drift table, serve.relearn_latency_ms) and "
               "prints the full metrics\nregistry as JSON after the run.\n"
               "\n"
               "probe --http routes every probe through the real socket stack: "
               "the fleet\nis served by a loopback HTTP server and fetched "
               "with the pooled HTTP client\nthrough the resilient prober — "
               "same pages, same manifest, real sockets.\n"
               "\n"
               "send: NDJSON client for a networked thord — reads request "
               "lines from stdin,\nstreams them to thord --listen, prints "
               "the response lines, exits 0 on clean\nEOF.\n"
               "\n"
               "fetch: one HTTP GET against a fleet worker or router "
               "(e.g. --path /ledger\nor --path /template?site=site0); "
               "prints the response body, exits 0 only on\nHTTP 200.\n"
               "\n"
               "probe drift: --drift-seed enables deterministic template "
               "drift and --epoch N\ncaches the pages the fleet serves "
               "after N redesign steps (same seed + different\nepoch = "
               "same site, new template).\n"
               "\n"
               "templates: `analyze` learns a page directory's templates "
               "into a THORTPL1 file\n(default templates.tpl) and `apply` "
               "extracts single pages with it; `dump`\nprints any THORTPL1 "
               "file as text — an analyze output or a store's\n"
               "<site>.g<N>.tpl generation.\n"
               "\n"
               "serving: `learn` runs the full pipeline over each page "
               "directory and commits\nthe learned templates to a "
               "versioned template store (site name defaults to the\n"
               "directory basename); `extract-from-store` serves single "
               "pages from that store\nthrough the same cached service "
               "the thord daemon uses.\n");
  return 2;
}

// Reads the page file at `path` into `html`; false, with a message, when
// it is missing, unreadable or a directory.
bool ReadPage(const std::string& path, std::string* html) {
  std::ifstream in(path);
  std::error_code ec;
  if (!in || fs::is_directory(path, ec)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  html->assign(std::istreambuf_iterator<char>(in), {});
  return true;
}

// Loads every .html file of `dir` (sorted), applying manifest.tsv stage-1
// flags when present. Returns false on I/O failure.
bool LoadPagesFromDir(const std::string& dir, std::vector<core::Page>* pages,
                      std::vector<std::string>* names) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".html") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  std::sort(files.begin(), files.end());
  std::map<std::string, bool> nonsense_by_name;
  {
    std::ifstream manifest(fs::path(dir) / "manifest.tsv");
    std::string line;
    while (std::getline(manifest, line)) {
      size_t tab1 = line.find('\t');
      if (tab1 == std::string::npos) continue;
      nonsense_by_name[line.substr(0, tab1)] = line[tab1 + 1] == '1';
    }
  }
  for (const auto& file : files) {
    std::string html;
    if (!ReadPage(file.string(), &html)) return false;
    pages->push_back(
        core::Page::Parse(file.filename().string(), std::move(html)));
    auto it = nonsense_by_name.find(file.filename().string());
    if (it != nonsense_by_name.end()) {
      pages->back().from_nonsense_probe = it->second;
    }
    names->push_back(file.filename().string());
  }
  return true;
}

// JSON rendering of one extraction (pagelet + objects + fields).
void WriteExtractionJson(const html::ArenaTree& tree, const std::string& name,
                         html::NodeId pagelet,
                         const std::vector<core::ObjectSpan>& objects,
                         JsonWriter* json) {
  json->BeginObject();
  json->Key("file").String(name);
  json->Key("pagelet_path").String(tree.PathString(pagelet));
  json->Key("objects").BeginArray();
  auto all_fields = core::PartitionAllFields(tree, objects);
  for (size_t o = 0; o < objects.size(); ++o) {
    json->BeginObject();
    json->Key("text").String(core::ObjectTexts(tree, {objects[o]})[0]);
    json->Key("fields").BeginArray();
    for (const core::QaField& field : all_fields[o]) {
      json->BeginObject();
      json->Key("type").String(core::FieldTypeName(field.type));
      if (!field.label.empty()) json->Key("label").String(field.label);
      json->Key("value").String(field.value);
      if (field.number != 0.0) json->Key("number").Double(field.number);
      json->EndObject();
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

// Reads a THORTPL1 templates file: an `analyze` output or a store's
// generation file.
Result<core::TemplateRegistry> ReadTemplatesFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot read " + path);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return serve::DecodeTemplates(blob);
}

// --- analyze: full THOR run -> persisted templates -----------------------

int RunAnalyze(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string templates_file = "templates.tpl";
  if (!ParseArgs(argc, argv, {{"--templates", &templates_file}}, &dirs) ||
      dirs.size() != 1) {
    return Usage();
  }
  const std::string& dir = dirs[0];
  std::vector<core::Page> pages;
  std::vector<std::string> names;
  if (!LoadPagesFromDir(dir, &pages, &names)) return 1;
  if (pages.empty()) {
    std::fprintf(stderr, "no .html files in %s\n", dir.c_str());
    return 1;
  }
  auto result = core::RunThor(pages, core::ThorOptions{});
  if (!result.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  core::TemplateRegistry registry =
      core::TemplateRegistry::Learn(pages, *result);
  std::ofstream out(templates_file, std::ios::binary | std::ios::trunc);
  out << serve::EncodeTemplates(registry);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s: %s\n", templates_file.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::printf("learned %zu template(s) from %zu pages -> %s\n",
              registry.templates().size(), pages.size(),
              templates_file.c_str());
  return 0;
}

// --- apply: persisted templates -> extraction on single pages ------------

int RunApply(int argc, char** argv) {
  std::string templates_file = "templates.tpl";
  bool as_json = false;
  std::vector<std::string> inputs;
  if (!ParseArgs(argc, argv,
                 {{"--templates", &templates_file}, {"--json", &as_json}},
                 &inputs) ||
      inputs.empty()) {
    return Usage();
  }
  auto registry = ReadTemplatesFile(templates_file);
  if (!registry.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", templates_file.c_str(),
                 registry.status().ToString().c_str());
    return 1;
  }
  const core::CompiledTemplates templates =
      core::CompiledTemplates::Compile(*registry);
  core::HotExtractor extractor;
  JsonWriter json;
  if (as_json) json.BeginObject(), json.Key("pages").BeginArray();
  for (const std::string& input : inputs) {
    std::string page_html;
    if (!ReadPage(input, &page_html)) return 1;
    const html::ArenaTree& tree = extractor.Parse(page_html);
    const html::NodeId pagelet = extractor.Locate(tree, templates).node;
    if (pagelet == html::kInvalidNode) {
      if (!as_json) std::printf("%-24s no QA-Pagelet\n", input.c_str());
      continue;
    }
    const std::vector<core::ObjectSpan> objects =
        core::PartitionObjects(tree, pagelet);
    if (as_json) {
      WriteExtractionJson(tree, input, pagelet, objects, &json);
    } else {
      std::printf("%-24s pagelet=%-28s objects=%zu\n", input.c_str(),
                  tree.PathString(pagelet).c_str(), objects.size());
    }
  }
  if (as_json) {
    json.EndArray(), json.EndObject();
    std::printf("%s\n", json.str().c_str());
  }
  return 0;
}

// --- dump: any THORTPL1 file -> text ------------------------------------

// Shortest decimal text that reads back as exactly `value`.
std::string ExactDouble(double value) {
  char buf[32];
  auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

int RunDump(int argc, char** argv) {
  if (argc != 1 || IsFlag(argv[0])) return Usage();
  auto registry = ReadTemplatesFile(argv[0]);
  if (!registry.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", argv[0],
                 registry.status().ToString().c_str());
    return 1;
  }
  auto print_tags = [](const char* label, const ir::SparseVector& tags) {
    std::printf("  %-17s", label);
    for (const ir::VectorEntry& e : tags.entries()) {
      std::printf(" %s=%s", html::TagName(e.id).c_str(),
                  ExactDouble(e.weight).c_str());
    }
    std::printf("\n");
  };
  std::printf("%s: %zu template(s)\n", argv[0],
              registry->templates().size());
  for (size_t t = 0; t < registry->templates().size(); ++t) {
    const core::ExtractionTemplate& tmpl = registry->templates()[t];
    std::printf("template %zu\n", t);
    std::printf("  path_symbols      %s\n", tmpl.path_symbols.c_str());
    std::printf("  prototype         %s fanout=%d depth=%d num_nodes=%d\n",
                tmpl.prototype.path_symbols.c_str(), tmpl.prototype.fanout,
                tmpl.prototype.depth, tmpl.prototype.num_nodes);
    std::printf("  support           %d\n", tmpl.support);
    std::printf("  max_distance      %s\n",
                ExactDouble(tmpl.max_distance).c_str());
    std::printf("  min_stable_match  %s\n",
                ExactDouble(tmpl.min_stable_match).c_str());
    print_tags("stable_tags", tmpl.stable_tags);
    print_tags("known_tags", tmpl.known_tags);
  }
  return 0;
}

// --- learn: full THOR run -> versioned template store --------------------

int RunLearn(int argc, char** argv) {
  std::string store_dir;
  std::string site_override;
  std::vector<std::string> dirs;
  if (!ParseArgs(argc, argv,
                 {{"--store", &store_dir}, {"--site", &site_override}},
                 &dirs) ||
      dirs.empty() || store_dir.empty()) {
    return Usage();
  }
  if (!site_override.empty() && dirs.size() > 1) {
    std::fprintf(stderr, "--site only applies to a single directory\n");
    return 2;
  }
  auto store = serve::TemplateStore::Open(store_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  for (const std::string& dir : dirs) {
    std::vector<core::Page> pages;
    std::vector<std::string> names;
    if (!LoadPagesFromDir(dir, &pages, &names)) return 1;
    if (pages.empty()) {
      std::fprintf(stderr, "no .html files in %s\n", dir.c_str());
      return 1;
    }
    auto result = core::RunThor(pages, core::ThorOptions{});
    if (!result.ok()) {
      std::fprintf(stderr, "%s: analysis failed: %s\n", dir.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    core::TemplateRegistry registry =
        core::TemplateRegistry::Learn(pages, *result);
    std::string site = !site_override.empty()
                           ? site_override
                           : fs::path(dir).filename().string();
    Status put = store->Put(site, registry);
    if (!put.ok()) {
      std::fprintf(stderr, "%s: store write failed: %s\n", dir.c_str(),
                   put.ToString().c_str());
      return 1;
    }
    std::printf("learned %zu template(s) from %zu pages -> %s (site %s, "
                "generation %lld)\n",
                registry.templates().size(), pages.size(),
                store_dir.c_str(), site.c_str(),
                static_cast<long long>(store->Generation(site)));
  }
  return 0;
}

// --- extract-from-store: cached service -> extraction on single pages ----

int RunExtractFromStore(int argc, char** argv) {
  std::string store_dir;
  std::string site;
  bool as_json = false;
  std::vector<std::string> inputs;
  if (!ParseArgs(argc, argv,
                 {{"--store", &store_dir}, {"--site", &site},
                  {"--json", &as_json}},
                 &inputs) ||
      inputs.empty() || store_dir.empty() || site.empty()) {
    return Usage();
  }
  auto store = serve::TemplateStore::Open(store_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  serve::ExtractionService service(&*store, serve::ServiceOptions{});
  JsonWriter json;
  if (as_json) json.BeginObject(), json.Key("pages").BeginArray();
  for (const std::string& input : inputs) {
    std::string page_html;
    if (!ReadPage(input, &page_html)) return 1;
    auto response = service.Extract({site, std::move(page_html)});
    if (as_json) {
      json.BeginObject();
      json.Key("file").String(input);
      json.Key("source")
          .String(serve::ExtractionService::SourceName(response.source));
      json.Key("pagelet_path").String(response.pagelet_path);
      json.Key("confidence").Double(response.confidence);
      json.Key("objects").BeginArray();
      for (const std::string& text : response.objects) json.String(text);
      json.EndArray();
      json.EndObject();
    } else if (response.source ==
               serve::ExtractionService::Source::kTemplate) {
      std::printf("%-24s pagelet=%-28s objects=%zu confidence=%.2f\n",
                  input.c_str(), response.pagelet_path.c_str(),
                  response.objects.size(), response.confidence);
    } else {
      std::printf("%-24s no QA-Pagelet (%s)\n", input.c_str(),
                  response.error.empty()
                      ? serve::ExtractionService::SourceName(response.source)
                      : response.error.c_str());
    }
  }
  if (as_json) {
    json.EndArray(), json.EndObject();
    std::printf("%s\n", json.str().c_str());
  }
  return 0;
}

// --- probe -------------------------------------------------------------

int RunProbe(int argc, char** argv) {
  int num_sites = 3;
  int num_queries = 100;
  std::string out_dir = "probed_pages";
  uint64_t drift_seed = 0;
  double drift_rate = 0.35;
  double drift_ab = 0.0;
  int epoch = 0;
  bool use_http = false;
  if (!ParseArgs(argc, argv,
                 {{"--http", &use_http}, {"--sites", &num_sites},
                  {"--out", &out_dir}, {"--queries", &num_queries},
                  {"--drift-seed", &drift_seed}, {"--drift-rate", &drift_rate},
                  {"--drift-ab", &drift_ab}, {"--epoch", &epoch}})) {
    return Usage();
  }
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  fleet_options.drift.seed = drift_seed;
  fleet_options.drift.mutation_rate = drift_rate;
  fleet_options.drift.ab_fraction = drift_ab;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  // Probing at --epoch N caches the pages the fleet would serve after N
  // drift steps; the same seed and a different epoch replays the exact
  // redesign history (the drift-survival harness builds its request
  // streams this way).
  deepweb::SetFleetEpoch(&fleet, epoch);
  deepweb::ProbeOptions probe;
  probe.num_dictionary_words = num_queries;
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // --http: serve the fleet over loopback HTTP and probe it through the
  // pooled client, exercising the same socket stack a real crawl would.
  // Same prober, same pages, same manifest.
  std::unique_ptr<net::SimSiteServer> sim;
  std::unique_ptr<net::HttpClient> client;
  uint16_t sim_port = 0;
  if (use_http) {
    sim = std::make_unique<net::SimSiteServer>(&fleet);
    auto port = sim->Start();
    if (!port.ok()) {
      std::fprintf(stderr, "cannot start sim server: %s\n",
                   port.status().ToString().c_str());
      return 1;
    }
    sim_port = *port;
    client = std::make_unique<net::HttpClient>();
  }
  int written = 0;
  for (const auto& site : fleet) {
    fs::path site_dir =
        fs::path(out_dir) / ("site" + std::to_string(site.config().site_id));
    fs::create_directories(site_dir);
    deepweb::ProbeOptions per_site = probe;
    per_site.seed += static_cast<uint64_t>(site.config().site_id);
    int page = 0;
    // The manifest preserves stage-1 knowledge (which probes were
    // nonsense words) so `extract` can veto the no-match cluster exactly
    // as the in-process pipeline does.
    std::ofstream manifest(site_dir / "manifest.tsv");
    std::unique_ptr<deepweb::SiteTransport> transport;
    if (use_http) {
      transport = std::make_unique<deepweb::HttpTransport>(
          client.get(), "127.0.0.1", sim_port, site.config().site_id);
    } else {
      transport = std::make_unique<deepweb::DirectTransport>(&site);
    }
    deepweb::ResilientProbeOptions resilient;
    resilient.plan = per_site;
    auto probed = deepweb::ResilientProbeSite(transport.get(), resilient);
    if (!probed.ok()) {
      std::fprintf(stderr, "probe failed for site %d: %s\n",
                   site.config().site_id, probed.status().ToString().c_str());
      return 1;
    }
    for (const auto& response : probed->responses) {
      std::string name = "page" + std::to_string(page++) + ".html";
      std::ofstream out(site_dir / name);
      out << "<!-- url: " << response.url << " -->\n" << response.html;
      manifest << name << '\t' << (response.from_nonsense_probe ? 1 : 0)
               << '\t' << response.url << '\t' << response.query << '\n';
      ++written;
    }
  }
  std::printf("wrote %d pages under %s (%d sites)\n", written,
              out_dir.c_str(), num_sites);
  std::printf("next: thorcli extract %s/site0\n", out_dir.c_str());
  return 0;
}

// --- send: NDJSON client for a networked thord ---------------------------

int RunSend(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  double timeout_ms = 30000.0;
  if (!ParseArgs(argc, argv,
                 {{"--port", &port}, {"--host", &host},
                  {"--timeout-ms", &timeout_ms}}) ||
      port <= 0 || port > 65535) {
    return Usage();
  }
  net::IgnoreSigPipe();
  std::string input((std::istreambuf_iterator<char>(std::cin)),
                    std::istreambuf_iterator<char>());
  Deadline deadline = Deadline::After(nullptr, timeout_ms);
  auto sock = net::ConnectTcp(host, static_cast<uint16_t>(port), deadline);
  if (!sock.ok()) {
    std::fprintf(stderr, "connect %s:%d failed: %s\n", host.c_str(), port,
                 sock.status().ToString().c_str());
    return 1;
  }
  size_t sent = 0;
  while (sent < input.size()) {
    net::IoResult io =
        net::WriteSome(sock->fd(), input.data() + sent, input.size() - sent);
    if (io.status == net::IoStatus::kOk) {
      sent += io.bytes;
      continue;
    }
    if (io.status == net::IoStatus::kWouldBlock) {
      Status ready = net::WaitReady(sock->fd(), /*for_write=*/true, deadline);
      if (!ready.ok()) {
        std::fprintf(stderr, "send timed out: %s\n",
                     ready.ToString().c_str());
        return 1;
      }
      continue;
    }
    std::fprintf(stderr, "connection closed during send\n");
    return 1;
  }
  // Half-close: tells thord the request stream is complete, exactly like
  // EOF on stdin; responses keep flowing until the server closes.
  ::shutdown(sock->fd(), SHUT_WR);
  char buf[65536];
  for (;;) {
    net::IoResult io = net::ReadSome(sock->fd(), buf, sizeof(buf));
    if (io.status == net::IoStatus::kOk) {
      std::fwrite(buf, 1, io.bytes, stdout);
      continue;
    }
    if (io.status == net::IoStatus::kWouldBlock) {
      Status ready = net::WaitReady(sock->fd(), /*for_write=*/false, deadline);
      if (!ready.ok()) {
        std::fprintf(stderr, "response timed out: %s\n",
                     ready.ToString().c_str());
        return 1;
      }
      continue;
    }
    if (io.status == net::IoStatus::kClosed) break;  // clean EOF
    std::fprintf(stderr, "connection reset\n");
    return 1;
  }
  std::fflush(stdout);
  return 0;
}

// --- fetch: one HTTP GET against a fleet worker --------------------------

int RunFetch(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string path;
  int port = 0;
  double timeout_ms = 10000.0;
  if (!ParseArgs(argc, argv,
                 {{"--port", &port}, {"--host", &host}, {"--path", &path},
                  {"--timeout-ms", &timeout_ms}}) ||
      port <= 0 || port > 65535 || path.empty()) {
    return Usage();
  }
  net::IgnoreSigPipe();
  net::HttpClientOptions options;
  options.connect_timeout_ms = timeout_ms;
  options.request_timeout_ms = timeout_ms;
  net::HttpClient client(options);
  auto response = client.Get(host, static_cast<uint16_t>(port), path);
  if (!response.ok()) {
    std::fprintf(stderr, "fetch %s:%d%s failed: %s\n", host.c_str(), port,
                 path.c_str(), response.status().ToString().c_str());
    return 1;
  }
  std::fwrite(response->body.data(), 1, response->body.size(), stdout);
  if (response->body.empty() || response->body.back() != '\n') {
    std::fputc('\n', stdout);
  }
  std::fflush(stdout);
  if (response->status_code != 200) {
    std::fprintf(stderr, "fetch %s:%d%s: HTTP %d\n", host.c_str(), port,
                 path.c_str(), response->status_code);
    return 1;
  }
  return 0;
}

// --- extract -------------------------------------------------------------

int RunExtract(int argc, char** argv) {
  std::vector<std::string> dirs;
  bool as_json = false;
  if (!ParseArgs(argc, argv, {{"--json", &as_json}}, &dirs) ||
      dirs.size() != 1) {
    return Usage();
  }
  const std::string& dir = dirs[0];
  std::vector<core::Page> pages;
  std::vector<std::string> names;
  if (!LoadPagesFromDir(dir, &pages, &names)) return 1;
  if (pages.empty()) {
    std::fprintf(stderr, "no .html files in %s\n", dir.c_str());
    return 1;
  }
  auto result = core::RunThor(pages, core::ThorOptions{});
  if (!result.ok()) {
    std::fprintf(stderr, "extraction failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (as_json) {
    JsonWriter json;
    json.BeginObject();
    json.Key("pages").BeginArray();
    for (const auto& page_result : result->pages) {
      const core::Page& page =
          pages[static_cast<size_t>(page_result.page_index)];
      WriteExtractionJson(
          page.tree, names[static_cast<size_t>(page_result.page_index)],
          page_result.pagelet, page_result.objects, &json);
    }
    json.EndArray();
    json.EndObject();
    std::printf("%s\n", json.str().c_str());
  } else {
    std::printf("%zu pages, %d clusters, %zu extractions\n", pages.size(),
                result->clustering.k, result->pages.size());
    for (const auto& page_result : result->pages) {
      const core::Page& page =
          pages[static_cast<size_t>(page_result.page_index)];
      std::printf("%-16s pagelet=%-28s objects=%zu\n",
                  names[static_cast<size_t>(page_result.page_index)].c_str(),
                  page.tree.PathString(page_result.pagelet).c_str(),
                  page_result.objects.size());
    }
  }
  return 0;
}

// --- search: cross-site retrieval over extracted QA-Objects --------------

int RunSearch(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::string query;
  bool by_site = false;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--query")) {
      // One or more words: every argument up to the next flag.
      query = FlagValue(argc, argv, &i);
      while (i + 1 < argc && !IsFlag(argv[i + 1])) {
        query += ' ';
        query += argv[++i];
      }
    } else if (!std::strcmp(argv[i], "--by-site")) {
      by_site = true;
    } else if (IsFlag(argv[i])) {
      return Usage();
    } else {
      dirs.push_back(argv[i]);
    }
  }
  if (dirs.empty() || query.empty()) return Usage();
  search::DeepWebSearchEngine engine;
  int site_id = 0;
  for (const std::string& dir : dirs) {
    std::vector<core::Page> pages;
    std::vector<std::string> names;
    if (!LoadPagesFromDir(dir, &pages, &names)) return 1;
    if (pages.empty()) continue;
    auto result = core::RunThor(pages, core::ThorOptions{});
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    int docs = engine.AddSite(site_id++, dir, pages, *result);
    std::fprintf(stderr, "%s: %d objects indexed\n", dir.c_str(), docs);
  }
  engine.Finalize();
  if (by_site) {
    for (const auto& site : engine.SearchBySite(query)) {
      std::printf("%8.2f  %-30s (%d matching objects)\n", site.score,
                  site.site_name.c_str(), site.matching_documents);
    }
  } else {
    for (const auto& result : engine.Search(query, 10)) {
      std::printf("%6.2f  [%s]  %.70s\n", result.score,
                  result.document->site_name.c_str(),
                  result.document->text.c_str());
    }
  }
  return 0;
}

// --- eval ----------------------------------------------------------------

int RunEval(int argc, char** argv) {
  int num_sites = 10;
  double fault_rate = 0.0;
  int retry_budget = 4;
  double deadline_ms = 0.0;
  uint64_t seed = 1234;
  std::string trace_file;
  bool print_metrics = false;
  if (!ParseArgs(argc, argv,
                 {{"--sites", &num_sites}, {"--fault-rate", &fault_rate},
                  {"--retry-budget", &retry_budget},
                  {"--deadline-ms", &deadline_ms}, {"--seed", &seed},
                  {"--trace", &trace_file}, {"--metrics", &print_metrics}}) ||
      retry_budget < 1) {
    return Usage();
  }
  // One registry and tracer span the whole run — probing included — so the
  // trace shows where the time went across every site and stage.
  MetricsRegistry registry;
  Tracer tracer;
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  std::vector<deepweb::SiteSample> corpus;
  {
    Tracer::Scope probe_span(&tracer, "probe_corpus");
    deepweb::ResilientProbeOptions probe;
    probe.plan.seed = seed;
    probe.retry.max_attempts_per_query = retry_budget;
    probe.metrics = &registry;
    deepweb::ProbeStats stats;
    corpus = deepweb::BuildCorpusResilient(
        fleet, probe, deepweb::FaultOptions::Uniform(fault_rate, seed),
        &stats);
    if (fault_rate > 0.0) {
      std::printf(
          "chaos probe (fault-rate %.2f, retry budget %d, seed %llu):\n"
          "  %s\n",
          fault_rate, retry_budget, static_cast<unsigned long long>(seed),
          stats.ToString().c_str());
    }
  }
  core::PrecisionRecall total;
  int collapsed_sites = 0;
  int dropped_pages = 0;
  for (const auto& sample : corpus) {
    if (sample.pages.empty()) {
      std::printf("site %-3d probe collapsed (no usable pages)\n",
                  sample.site_id);
      ++collapsed_sites;
      continue;
    }
    dropped_pages += sample.diagnostics.pages_dropped;
    auto pages = core::ToPages(sample);
    core::ThorOptions thor_options;
    thor_options.observability.metrics = &registry;
    thor_options.observability.tracer = &tracer;
    if (deadline_ms > 0.0) {
      // Each site gets its own wall-clock budget; an overrun aborts that
      // site with a typed error instead of stalling the whole eval.
      thor_options.deadline = Deadline::After(nullptr, deadline_ms);
    }
    Tracer::Scope site_span(&tracer,
                            "site" + std::to_string(sample.site_id));
    auto result = core::RunThor(pages, thor_options);
    if (!result.ok()) {
      std::printf("site %-3d pipeline error: %s\n", sample.site_id,
                  result.status().ToString().c_str());
      continue;
    }
    auto pr = core::EvaluatePagelets(sample, *result);
    std::printf("site %-3d P=%.3f R=%.3f (%d/%d)", sample.site_id,
                pr.Precision(), pr.Recall(), pr.correct, pr.truth);
    if (result->diagnostics.degraded() ||
        sample.diagnostics.pages_dropped > 0) {
      std::printf("  [degraded: %d probe drops, %d pipeline drops]",
                  sample.diagnostics.pages_dropped,
                  result->diagnostics.pages_dropped);
    }
    std::printf("\n");
    total.Add(pr);
  }
  std::printf("TOTAL  P=%.3f R=%.3f over %d sites", total.Precision(),
              total.Recall(), num_sites);
  if (fault_rate > 0.0) {
    std::printf(" (%d collapsed, %d pages dropped)", collapsed_sites,
                dropped_pages);
  }
  std::printf("\n");
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
    out << ChromeTraceJson(tracer.Snapshot()) << "\n";
    std::printf("trace -> %s (open in about:tracing or ui.perfetto.dev)\n",
                trace_file.c_str());
  }
  if (print_metrics) {
    // Serving replay: stream the probed corpus through the background-
    // relearn serving stack (fresh store, learn-once per site) so the
    // printed registry carries the serve.* counters, the
    // serve.relearn_latency_ms histogram, and a per-site drift table —
    // the same signals an operator reads off a live thord.
    std::error_code store_ec;
    fs::path store_dir =
        fs::temp_directory_path(store_ec) /
        ("thorcli_eval_store_" + std::to_string(seed) + "_" +
         std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(store_dir, store_ec);
    auto store = serve::TemplateStore::Open(store_dir.string());
    if (store.ok()) {
      {
        serve::RelearnManagerOptions manager_options;
        manager_options.metrics = &registry;
        serve::RelearnManager manager(
            &*store, manager_options,
            [&corpus](const std::string& site,
                      uint64_t /*ticket*/) -> std::vector<core::Page> {
              // Relearns re-use the probed corpus — no second crawl.
              for (const auto& sample : corpus) {
                if (site == "site" + std::to_string(sample.site_id)) {
                  return core::ToPages(sample);
                }
              }
              return {};
            });
        serve::ServiceOptions service_options;
        service_options.metrics = &registry;
        service_options.relearn_manager = &manager;
        serve::ExtractionService service(&*store, service_options);
        std::vector<serve::ExtractionService::Request> batch;
        auto flush = [&] {
          if (!batch.empty()) service.ExtractBatch(batch);
          batch.clear();
        };
        for (const auto& sample : corpus) {
          std::string site = "site" + std::to_string(sample.site_id);
          for (const auto& page : sample.pages) {
            batch.push_back({site, page.html});
            if (batch.size() >= 16) flush();
          }
        }
        flush();
        // One empty batch runs the rendezvous past the last enqueue, so
        // every background job lands in the histogram before Stop.
        service.ExtractBatch({});
        manager.Stop();
        std::printf("serving replay (background relearn):\n");
        for (const auto& [site, stats] : service.AllStats()) {
          std::printf(
              "  %-8s drift=%-8s ewma=%.2f hits=%lld misses=%lld "
              "relearns=%lld\n",
              site.c_str(), serve::DriftStateName(stats.drift),
              stats.drift_ewma, static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses),
              static_cast<long long>(stats.relearns));
        }
      }
      fs::remove_all(store_dir, store_ec);
    }
    std::printf("%s\n", registry.Snapshot().ToJson().c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "probe") return RunProbe(argc - 2, argv + 2);
  if (command == "extract") return RunExtract(argc - 2, argv + 2);
  if (command == "analyze") return RunAnalyze(argc - 2, argv + 2);
  if (command == "apply") return RunApply(argc - 2, argv + 2);
  if (command == "dump") return RunDump(argc - 2, argv + 2);
  if (command == "learn") return RunLearn(argc - 2, argv + 2);
  if (command == "extract-from-store") {
    return RunExtractFromStore(argc - 2, argv + 2);
  }
  if (command == "send") return RunSend(argc - 2, argv + 2);
  if (command == "fetch") return RunFetch(argc - 2, argv + 2);
  if (command == "search") return RunSearch(argc - 2, argv + 2);
  if (command == "eval") return RunEval(argc - 2, argv + 2);
  return Usage();
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
