// Fixture: a legacy dashboard consumes this exact name; the violation is
// acknowledged with the allow() escape until the dashboard migrates.
namespace obs {
struct Registry {
  int& counter(const char*);
};
Registry& registry();
}  // namespace obs

void publish_legacy() {
  obs::registry().counter("Fleet-Requests");  // ash-check: allow(metric-name)
}
