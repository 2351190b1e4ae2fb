#include "Sarif.hh"

#include <map>

namespace sboram {
namespace lint {

namespace {

void
appendString(std::string &out, const std::string &s)
{
    out += '"';
    jsonEscape(out, s);
    out += '"';
}

} // namespace

std::string
findingsToSarif(const std::vector<Finding> &findings)
{
    const std::vector<RuleInfo> &rules = ruleRegistry();
    std::map<std::string, std::size_t> ruleIndex;
    for (std::size_t i = 0; i < rules.size(); ++i)
        ruleIndex[rules[i].name] = i;

    std::string out;
    out += "{\n";
    out += "  \"$schema\": \"https://json.schemastore.org/"
           "sarif-2.1.0.json\",\n";
    out += "  \"version\": \"2.1.0\",\n";
    out += "  \"runs\": [\n";
    out += "    {\n";
    out += "      \"tool\": {\n";
    out += "        \"driver\": {\n";
    out += "          \"name\": \"sblint\",\n";
    out += "          \"version\": \"2.0.0\",\n";
    out += "          \"informationUri\": "
           "\"https://example.invalid/sboram/sblint\",\n";
    out += "          \"rules\": [\n";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out += "            {\"id\": ";
        appendString(out, rules[i].name);
        out += ", \"shortDescription\": {\"text\": ";
        appendString(out, rules[i].description);
        out += "}}";
        out += i + 1 < rules.size() ? ",\n" : "\n";
    }
    out += "          ]\n";
    out += "        }\n";
    out += "      },\n";
    out += "      \"results\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        const std::string name = ruleName(f.rule);
        out += "        {\"ruleId\": ";
        appendString(out, name);
        out += ", \"ruleIndex\": " +
               std::to_string(ruleIndex.at(name));
        out += ", \"level\": \"error\", \"message\": {\"text\": ";
        appendString(out, f.message);
        out += "}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": ";
        appendString(out, f.file);
        out += "}, \"region\": {\"startLine\": " +
               std::to_string(f.line) + "}}}]}";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += "    }\n";
    out += "  ]\n";
    out += "}\n";
    return out;
}

} // namespace lint
} // namespace sboram
