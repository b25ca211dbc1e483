// Tests of message argument values: typing, Fortran-style widening and size
// accounting (messages are charged real bytes in the shared heap).
#include "core/value.hpp"

#include "core/message.hpp"

#include <gtest/gtest.h>

namespace pisces::rt {
namespace {

TEST(Value, TypedAccessorsAndWidening) {
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value(7).as_real(), 7.0);  // INTEGER widens to REAL
  EXPECT_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_THROW((void)Value(2.5).as_int(), std::runtime_error);
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value("abc").as_str(), "abc");
  const TaskId id{2, 4, 99};
  EXPECT_EQ(Value(id).as_taskid(), id);
  EXPECT_THROW((void)Value(id).as_window(), std::runtime_error);
}

// The encoded size of each kind, pinned: a tag byte, then the payload;
// strings and arrays add a 4-byte length and a list a 4-byte count.
TEST(Value, EncodedSizeMatchesEncodedBytes) {
  EXPECT_EQ(Value(1).encoded_size(), 9u);
  EXPECT_EQ(Value(2.0).encoded_size(), 9u);
  EXPECT_EQ(Value(true).encoded_size(), 2u);
  EXPECT_EQ(Value("").encoded_size(), 5u);
  EXPECT_EQ(Value("abcdef").encoded_size(), 5u + 6);
  EXPECT_EQ(Value(TaskId{1, 2, 3}).encoded_size(), 17u);
  EXPECT_EQ(Value(Window{}).encoded_size(), 45u);
  EXPECT_EQ(Value(std::vector<double>(17, 0.0)).encoded_size(), 5u + 8 * 17);
  EXPECT_EQ(Value(std::vector<std::int64_t>(3, 0)).encoded_size(), 5u + 8 * 3);
  EXPECT_EQ(Value::list({}).encoded_size(), 5u);
  EXPECT_EQ(Value::list({Value(1), Value("ab"), Value::list({Value(2.0)})}).encoded_size(),
            5u + 9 + 7 + (5 + 9));
  EXPECT_EQ(encoded_args_size({}), 4u);
  EXPECT_EQ(encoded_args_size({Value(1), Value("abcdef"), Value(TaskId{})}), 4u + 9 + 11 + 17);
}

TEST(Value, StrRendersReadably) {
  EXPECT_EQ(Value(5).str(), "5");
  EXPECT_EQ(Value(true).str(), ".TRUE.");
  EXPECT_EQ(Value("hi").str(), "'hi'");
  EXPECT_EQ(Value(std::vector<double>(3, 0.0)).str(), "real[3]");
  EXPECT_EQ(Value(TaskId{1, 3, 9}).str(), "(1,3,9)");
}

TEST(Value, ListEqualityIsDeep) {
  EXPECT_TRUE(Value::list({Value(1), Value("a")}) ==
              Value::list({Value(1), Value("a")}));
  EXPECT_FALSE(Value::list({Value(1)}) == Value::list({Value(2)}));
  EXPECT_FALSE(Value(1) == Value(1.0));
}

TEST(Message, EncodedSizeIncludesHeaderAndArgs) {
  Message m;
  m.type = "rows";
  m.args = {Value(1), Value(std::vector<double>(100, 0.0))};
  EXPECT_EQ(m.encoded_size(),
            Message::kHeaderBytes + encoded_args_size(m.args));
  EXPECT_TRUE(is_system_type("_INITIATE"));
  EXPECT_FALSE(is_system_type("rows"));
}

}  // namespace
}  // namespace pisces::rt
