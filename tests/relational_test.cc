// Unit tests for the relational catalog: SQL types, row width accounting,
// column lookup, DDL rendering and catalog totals.
#include <gtest/gtest.h>

#include "relational/catalog.h"

namespace legodb::rel {
namespace {

TEST(SqlTypeTest, Rendering) {
  EXPECT_EQ(SqlType::Int().ToString(), "INT");
  EXPECT_EQ(SqlType::Char(40).ToString(), "CHAR(40)");
  EXPECT_EQ(SqlType::Varchar(100).ToString(), "STRING");
}

TEST(SqlTypeTest, Widths) {
  EXPECT_DOUBLE_EQ(SqlType::Int().width, 4);
  EXPECT_DOUBLE_EQ(SqlType::Char(40).width, 40);
  EXPECT_DOUBLE_EQ(SqlType::Varchar(123).width, 123);
}

// Table Show, whose foreign key names catalog table `parent` (IMDB in the
// catalogs below).
Table MakeTable(int parent = 0) {
  Table t;
  t.name = "Show";
  t.row_count = 100;
  Column id, title, desc, fk;
  id.name = "Show_id";
  id.type = SqlType::Int();
  title.name = "title";
  title.type = SqlType::Char(50);
  desc.name = "description";
  desc.type = SqlType::Char(120);
  desc.nullable = true;
  desc.null_fraction = 0.5;
  fk.name = "parent_IMDB";
  fk.type = SqlType::Int();
  t.columns = {id, title, desc, fk};
  t.foreign_keys = {ForeignKey{3, parent}};
  return t;
}

Table MakeParent() {
  Table t;
  t.name = "IMDB";
  t.row_count = 1;
  Column id;
  id.name = "IMDB_id";
  id.type = SqlType::Int();
  t.columns = {id};
  return t;
}

TEST(TableTest, RowWidthAccountsForNullFractions) {
  Table t = MakeTable();
  // overhead 8 + id 4 + title 50 + desc 120*0.5 + null byte 1 + fk 4.
  EXPECT_DOUBLE_EQ(t.RowWidth(), 8 + 4 + 50 + 60 + 1 + 4);
}

TEST(TableTest, ColumnLookup) {
  Table t = MakeTable();
  EXPECT_EQ(t.ColumnIndex("Show_id"), Table::kKeyColumn);
  EXPECT_EQ(t.ColumnIndex("title"), 1);
  EXPECT_EQ(t.ColumnIndex("parent_IMDB"), 3);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
  EXPECT_TRUE(t.CheckColumn(0).ok());
  EXPECT_TRUE(t.CheckColumn(3).ok());
  for (int outside : {-1, 4}) {
    Status st = t.CheckColumn(outside);
    EXPECT_EQ(st.code(), Status::Code::kNotFound);
    EXPECT_NE(st.message().find("#" + std::to_string(outside)),
              std::string::npos);
    EXPECT_NE(st.message().find("'Show'"), std::string::npos);
  }
}

TEST(CatalogTest, AddAndFind) {
  Catalog c;
  EXPECT_EQ(c.AddTable(MakeTable(/*parent=*/1)).value(), 0);
  EXPECT_EQ(c.AddTable(MakeParent()).value(), 1);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.IndexOf("Show"), 0);
  EXPECT_EQ(c.IndexOf("IMDB"), 1);
  EXPECT_EQ(c.IndexOf("Nope"), -1);
  EXPECT_EQ(c.table(0).row_count, 100);
  EXPECT_EQ(c.table(c.table(0).foreign_keys[0].parent).name, "IMDB");
  EXPECT_EQ(&c.tables()[1], &c.table(1));
}

TEST(CatalogTest, RejectsDuplicateColumnNames) {
  Catalog c;
  Table t = MakeTable();
  t.columns.push_back(t.columns[1]);
  Status st = c.AddTable(t).status();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(c.IndexOf("Show"), -1);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.AddTable(MakeTable()).ok());
  EXPECT_EQ(c.AddTable(MakeTable()).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CatalogTest, RejectsForeignKeyOutsideTable) {
  Catalog c;
  Table t = MakeTable();
  t.name = "Other";
  t.foreign_keys[0].column = 4;
  EXPECT_EQ(c.AddTable(t).status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(c.size(), 0u);
}

TEST(CatalogTest, TotalBytes) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(MakeParent()).ok());
  ASSERT_TRUE(c.AddTable(MakeTable()).ok());
  EXPECT_DOUBLE_EQ(c.TotalBytes(),
                   1 * (8 + 4) + 100 * (8 + 4 + 50 + 60 + 1 + 4));
}

TEST(CatalogTest, DdlListsKeysAndConstraints) {
  Catalog c;
  ASSERT_TRUE(c.AddTable(MakeParent()).ok());
  ASSERT_TRUE(c.AddTable(MakeTable()).ok());
  std::string ddl = c.ToDdl();
  EXPECT_NE(ddl.find("TABLE Show"), std::string::npos);
  EXPECT_NE(ddl.find("Show_id INT PRIMARY KEY"), std::string::npos);
  EXPECT_NE(ddl.find("description CHAR(120) NULL"), std::string::npos);
  EXPECT_NE(ddl.find("FOREIGN KEY (parent_IMDB) REFERENCES IMDB"),
            std::string::npos);
  EXPECT_NE(ddl.find("100 rows"), std::string::npos);
  EXPECT_LT(ddl.find("TABLE IMDB"), ddl.find("TABLE Show"));  // index order
}

}  // namespace
}  // namespace legodb::rel
